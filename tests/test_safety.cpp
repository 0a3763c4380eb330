// Definition 1 and Theorem 1: the NODE_STATUS kernel, consistency
// checking, and existence + uniqueness of the safety-level assignment
// (uniqueness is verified exhaustively over ALL fault sets of small
// cubes by comparing the peeled existence construction with the GS fixed
// point from both starts — per Theorem 1 the three must agree
// everywhere).
#include "core/safety.hpp"

#include <gtest/gtest.h>

#include <array>

#include "core/global_status.hpp"
#include "fault/injection.hpp"

namespace slcube::core {
namespace {

Level kernel(std::initializer_list<Level> sorted, unsigned n) {
  std::vector<Level> v(sorted);
  return node_status(std::span<const Level>(v.data(), v.size()), n);
}

TEST(NodeStatus, AllHighIsSafe) {
  EXPECT_EQ(kernel({4, 4, 4, 4}, 4), 4);
  EXPECT_EQ(kernel({0, 1, 2, 3}, 4), 4);  // boundary of the >= condition
}

TEST(NodeStatus, TwoZerosGiveLevelOne) {
  EXPECT_EQ(kernel({0, 0, 4, 4}, 4), 1);
  EXPECT_EQ(kernel({0, 0, 0, 0}, 4), 1);
}

TEST(NodeStatus, SingleZeroTolerated) {
  EXPECT_EQ(kernel({0, 4, 4, 4}, 4), 4);
  EXPECT_EQ(kernel({0, 1, 4, 4}, 4), 4);
}

TEST(NodeStatus, MidSequenceFailure) {
  // (0, 1, 1, 4): S_2 = 1 < 2 -> level 2 (paper's node 0101 in Fig. 1).
  EXPECT_EQ(kernel({0, 1, 1, 4}, 4), 2);
  // (1, 1, 1, 4): S_2 = 1 < 2 -> level 2.
  EXPECT_EQ(kernel({1, 1, 1, 4}, 4), 2);
  // (0, 1, 2, 2): S_3 = 2 < 3 -> level 3.
  EXPECT_EQ(kernel({0, 1, 2, 2}, 4), 3);
}

TEST(NodeStatus, DimensionOne) {
  EXPECT_EQ(kernel({0}, 1), 1);  // lone faulty neighbor: still 1-safe
  EXPECT_EQ(kernel({1}, 1), 1);
}

TEST(NodeStatus, NeverZeroForHealthyInput) {
  // A healthy node's level is >= 1 whatever its neighbors look like
  // (S_0 >= 0 always holds), a fact the router relies on: level 0 <=>
  // faulty. Exhaustive over all sorted level vectors for n = 3.
  for (Level a = 0; a <= 3; ++a) {
    for (Level b = a; b <= 3; ++b) {
      for (Level c = b; c <= 3; ++c) {
        EXPECT_GE(kernel({a, b, c}, 3), 1);
        EXPECT_LE(kernel({a, b, c}, 3), 3);
      }
    }
  }
}

TEST(SafetyLevels, Accessors) {
  SafetyLevels lv(3, 8, 3);
  EXPECT_EQ(lv.dimension(), 3u);
  EXPECT_EQ(lv.size(), 8u);
  EXPECT_TRUE(lv.is_safe(0));
  lv[5] = 1;
  EXPECT_EQ(lv[5], 1);
  EXPECT_FALSE(lv.is_safe(5));
  EXPECT_EQ(lv.safe_nodes().size(), 7u);
}

TEST(ImpliedLevel, MatchesHandComputedFig1Node) {
  // Node 0101 of Fig. 1 with neighbor levels (0100: 0, 0111: 1, 0001: 1,
  // 1101: 4) implies level 2.
  const topo::Hypercube q(4);
  const fault::FaultSet f(q.num_nodes(), {0b0011, 0b0100, 0b0110, 0b1001});
  SafetyLevels lv(4, 16, 4);
  lv[0b0100] = 0;
  lv[0b0011] = 0;
  lv[0b0110] = 0;
  lv[0b1001] = 0;
  lv[0b0111] = 1;
  lv[0b0001] = 1;
  EXPECT_EQ(implied_level(q, f, lv, 0b0101), 2);
}

TEST(Consistency, FixedPointIsConsistent) {
  const topo::Hypercube q(5);
  Xoshiro256ss rng(5);
  for (int t = 0; t < 25; ++t) {
    const auto f = fault::inject_uniform(q, 8, rng);
    EXPECT_TRUE(is_consistent(q, f, compute_safety_levels(q, f)));
  }
}

TEST(Consistency, PerturbedAssignmentIsInconsistent) {
  const topo::Hypercube q(4);
  const fault::FaultSet f(q.num_nodes(), {0b0011, 0b0100, 0b0110, 0b1001});
  auto lv = compute_safety_levels(q, f);
  lv[0b0101] = 4;  // truth is 2
  EXPECT_FALSE(is_consistent(q, f, lv));
}

TEST(Consistency, FaultyNodeMustBeZero) {
  const topo::Hypercube q(3);
  const fault::FaultSet f(q.num_nodes(), {0});
  auto lv = compute_safety_levels(q, f);
  lv[0] = 1;
  EXPECT_FALSE(is_consistent(q, f, lv));
}

/// Theorem 1 both ways: the peel (compute_safety_levels, the existence
/// construction) must equal the GS fixed point reached from above (the
/// paper's all-n start) and from below (the all-0 start).
::testing::AssertionResult peel_equals_gs(const topo::Hypercube& q,
                                          const fault::FaultSet& f) {
  const SafetyLevels peeled = compute_safety_levels(q, f);
  if (peeled != run_gs(q, f).levels) {
    return ::testing::AssertionFailure() << "peel != GS from the all-n start";
  }
  GsOptions pessimistic;
  pessimistic.pessimistic_start = true;
  if (peeled != run_gs(q, f, pessimistic).levels) {
    return ::testing::AssertionFailure() << "peel != GS from the all-0 start";
  }
  return ::testing::AssertionSuccess();
}

/// Every fault set of Q1–Q4: 4 + 16 + 256 + 65,536 = 65,812 sets, so
/// every stage order the peel can meet on these cubes is covered.
TEST(Theorem1, PeelEqualsGsExhaustiveQ1ToQ4) {
  std::uint64_t sets = 0;
  for (unsigned n = 1; n <= 4; ++n) {
    const topo::Hypercube q(n);
    const auto nodes = static_cast<NodeId>(q.num_nodes());
    for (std::uint32_t mask = 0; mask < (1u << nodes); ++mask) {
      fault::FaultSet f(q.num_nodes());
      for (NodeId a = 0; a < nodes; ++a) {
        if ((mask >> a) & 1u) f.mark_faulty(a);
      }
      ASSERT_TRUE(peel_equals_gs(q, f)) << "Q" << n << " fault mask " << mask;
      ++sets;
    }
  }
  EXPECT_EQ(sets, 65'812u);
}

/// Q5–Q12: the fault-free cube, then fault counts from one up to N/4,
/// the density at which the fixed point collapses and most healthy
/// nodes are peeled.
TEST(Theorem1, PeelEqualsGsRandomizedQ5ToQ12) {
  Xoshiro256ss rng(123);
  for (unsigned n = 5; n <= 12; ++n) {
    const topo::Hypercube q(n);
    const std::uint64_t collapse = q.num_nodes() / 4;
    const fault::FaultSet none(q.num_nodes());
    EXPECT_EQ(compute_safety_levels(q, none),
              SafetyLevels(n, q.num_nodes(), static_cast<Level>(n)));
    ASSERT_TRUE(peel_equals_gs(q, none)) << "Q" << n << " fault-free";
    std::vector<std::uint64_t> counts = {1, collapse};
    for (int t = 0; t < 10; ++t) counts.push_back(1 + rng.below(collapse));
    for (const std::uint64_t count : counts) {
      ASSERT_TRUE(peel_equals_gs(q, fault::inject_uniform(q, count, rng)))
          << "Q" << n << ", " << count << " faults";
    }
  }
}

TEST(SafetyLevels, SingleFaultMakesNeighborsStaySafe) {
  // One fault in Q_n: every other node still has at most one 0-neighbor,
  // so everyone healthy remains n-safe.
  for (unsigned n = 2; n <= 7; ++n) {
    const topo::Hypercube q(n);
    const fault::FaultSet f(q.num_nodes(), {0});
    const auto lv = compute_safety_levels(q, f);
    for (NodeId a = 1; a < q.num_nodes(); ++a) {
      EXPECT_EQ(lv[a], static_cast<Level>(n)) << "n=" << n << " a=" << a;
    }
  }
}

}  // namespace
}  // namespace slcube::core
