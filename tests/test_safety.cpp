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
  EXPECT_EQ(implied_level(q, f, lv.unpack(), 0b0101), 2);
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

/// Definition 1 at one node, from a counting loop of the test's own: a
/// faulty node holds 0, and a healthy one the least i < n with at least
/// i+1 neighbors at a level <= i-1, or n when there is none.
bool reference_holds(const topo::Hypercube& q, const fault::FaultSet& f,
                     const SafetyLevels& lv, NodeId a) {
  if (f.is_faulty(a)) return lv[a] == 0;
  const unsigned n = q.dimension();
  std::array<Level, topo::Hypercube::kMaxDimension> nb{};
  q.for_each_neighbor(a, [&](Dim d, NodeId b) { nb[d] = lv[b]; });
  for (unsigned i = 1; i < n; ++i) {
    unsigned at_most = 0;
    for (Dim d = 0; d < n; ++d) at_most += nb[d] < i;
    if (at_most >= i + 1) return lv[a] == i;
  }
  return lv[a] == n;
}

bool reference_consistent(const topo::Hypercube& q, const fault::FaultSet& f,
                          const SafetyLevels& lv) {
  for (NodeId a = 0; a < q.num_nodes(); ++a) {
    if (!reference_holds(q, f, lv, a)) return false;
  }
  return true;
}

/// Sets node x of the fixed point `lv` to each listed value other than
/// its own. Only x and its neighbors can change their reference verdict,
/// and by Theorem 1's uniqueness one of them must fail; is_consistent
/// must reject every such table. `lv` is restored on success.
::testing::AssertionResult rejects_changes(const topo::Hypercube& q,
                                           const fault::FaultSet& f,
                                           SafetyLevels& lv, NodeId x,
                                           std::span<const Level> values) {
  const Level truth = lv[x];
  for (const Level v : values) {
    if (v == truth) continue;
    lv.set(x, v);
    bool holds = reference_holds(q, f, lv, x);
    q.for_each_neighbor(x, [&](Dim, NodeId b) {
      holds = holds && reference_holds(q, f, lv, b);
    });
    if (holds || is_consistent(q, f, lv)) {
      return ::testing::AssertionFailure()
             << "Q" << q.dimension() << " node " << x << " changed from "
             << int{truth} << " to " << int{v} << " passed"
             << (holds ? " the reference" : " is_consistent");
    }
  }
  lv.set(x, truth);
  return ::testing::AssertionSuccess();
}

/// Every value a packed 5-bit slot can hold, 0..31.
std::vector<Level> every_slot_value() {
  std::vector<Level> v(PackedLevels::kSlotMask + 1);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<Level>(i);
  return v;
}

/// Every fault set of Q1–Q4: the fixed point passes both checks, and
/// each node changed to any other value a slot holds, up to 31, fails.
/// Values above n once indexed past implied_level's histogram. The 32.5M
/// changes run in four shards of the fault masks, so ctest can spread
/// them over its jobs.
class ExhaustiveChanges : public ::testing::TestWithParam<std::uint32_t> {};

constexpr std::uint32_t kExhaustiveShards = 4;

TEST_P(ExhaustiveChanges, RejectEveryOneNodeChangeQ1ToQ4) {
  const std::vector<Level> values = every_slot_value();
  std::uint64_t sets = 0;
  for (unsigned n = 1; n <= 4; ++n) {
    const topo::Hypercube q(n);
    const auto nodes = static_cast<NodeId>(q.num_nodes());
    for (std::uint32_t mask = GetParam(); mask < (1u << nodes);
         mask += kExhaustiveShards) {
      fault::FaultSet f(q.num_nodes());
      for (NodeId a = 0; a < nodes; ++a) {
        if ((mask >> a) & 1u) f.mark_faulty(a);
      }
      SafetyLevels lv = compute_safety_levels(q, f);
      ASSERT_TRUE(reference_consistent(q, f, lv))
          << "Q" << n << " mask " << mask;
      ASSERT_TRUE(is_consistent(q, f, lv)) << "Q" << n << " mask " << mask;
      for (NodeId x = 0; x < nodes; ++x) {
        ASSERT_TRUE(rejects_changes(q, f, lv, x, values)) << "mask " << mask;
      }
      ++sets;
    }
  }
  // A quarter of every cube's masks: 65,812 / 4 sets.
  EXPECT_EQ(sets, 1u + 4u + 64u + 16'384u);
}

INSTANTIATE_TEST_SUITE_P(Consistency, ExhaustiveChanges,
                         ::testing::Range(std::uint32_t{0}, kExhaustiveShards));

/// Q6–Q16 at 2n faults, 1% and 2%: the fixed point passes, and one-node
/// changes fail. The changed nodes cover every level present, a faulty
/// node (raised to n among others), and the first and last node of a
/// 64-node block; the values cover 0, 1, the neighbors of the true
/// level, n, and levels above n.
TEST(Consistency, RandomizedQ6ToQ16RejectsOneNodeChanges) {
  Xoshiro256ss rng(23);
  for (unsigned n = 6; n <= 16; n += 2) {
    const topo::Hypercube q(n);
    const auto nodes = static_cast<NodeId>(q.num_nodes());
    for (const std::uint64_t count :
         {std::uint64_t{2} * n, q.num_nodes() / 100, q.num_nodes() / 50}) {
      const auto f = fault::inject_uniform(q, count, rng);
      SafetyLevels lv = compute_safety_levels(q, f);
      ASSERT_TRUE(reference_consistent(q, f, lv));
      ASSERT_TRUE(is_consistent(q, f, lv));
      std::vector<NodeId> targets;
      std::vector<bool> level_seen(n + 1, false);
      for (NodeId a = static_cast<NodeId>(rng.below(nodes)), k = 0; k < nodes;
           ++k, a = (a + 1) & (nodes - 1)) {
        if (!level_seen[lv[a]]) {
          level_seen[lv[a]] = true;
          targets.push_back(a);
        }
      }
      const auto block = static_cast<NodeId>(rng.below(nodes / 64)) * 64;
      targets.push_back(block);
      targets.push_back(block + 63);
      targets.push_back(static_cast<NodeId>(rng.below(nodes)));
      for (const NodeId x : targets) {
        const int t = lv[x];
        std::vector<Level> values;
        for (const int v : {0, 1, t - 1, t + 1, static_cast<int>(n) - 1,
                            static_cast<int>(n), static_cast<int>(n) + 1,
                            static_cast<int>(PackedLevels::kSlotMask)}) {
          if (v >= 0) values.push_back(static_cast<Level>(v));
        }
        ASSERT_TRUE(rejects_changes(q, f, lv, x, values))
            << count << " faults";
      }
    }
  }
}

/// Q20 at 1% and 2%: the fixed points pass, and the full counting test
/// runs on many of their healthy nodes. At 1% thousands of safe nodes
/// have neighbors too deep for the quick rule (two at 0, or one of the m
/// below 20 under m - 1); at 2% the fixed point collapses and every
/// healthy node sits below 20. A change to such a node fails.
TEST(Consistency, Q20FixedPointsPassWhereManyNodesTakeTheFullTest) {
  const topo::Hypercube q(20);
  Xoshiro256ss rng(20);
  for (const std::uint64_t pct : {1u, 2u}) {
    const auto f = fault::inject_uniform(q, q.num_nodes() * pct / 100, rng);
    SafetyLevels lv = compute_safety_levels(q, f);
    EXPECT_TRUE(is_consistent(q, f, lv));
    std::uint64_t below_n = 0;
    std::uint64_t deep_safe = 0;
    NodeId example = 0;
    for (NodeId a = 0; a < q.num_nodes(); ++a) {
      if (f.is_faulty(a)) continue;
      if (lv[a] != 20) {
        ++below_n;
        example = a;
        continue;
      }
      unsigned below = 0;
      unsigned zeros = 0;
      unsigned least = 20;
      q.for_each_neighbor(a, [&](Dim, NodeId b) {
        below += lv[b] < 20;
        zeros += lv[b] == 0;
        if (lv[b] != 0 && lv[b] < least) least = lv[b];
      });
      if (zeros > 1 || below > least + 1) {
        ++deep_safe;
        example = a;
      }
    }
    if (pct == 1) {
      EXPECT_GT(deep_safe, 10'000u);
    } else {
      EXPECT_EQ(below_n, f.healthy_count());
    }
    const Level values[] = {static_cast<Level>(lv[example] - 1), 20, 21};
    EXPECT_TRUE(rejects_changes(q, f, lv, example, values)) << pct << "%";
  }
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
