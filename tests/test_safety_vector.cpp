// The safety-vector extension: soundness against the exact oracle,
// dominance over scalar safety levels, and vector-guided routing.
#include "core/safety_vector.hpp"

#include <gtest/gtest.h>

#include "analysis/optimal_reach.hpp"
#include "core/global_status.hpp"
#include "fault/injection.hpp"
#include "fault/scenario.hpp"

namespace slcube::core {
namespace {

TEST(SafetyVectors, FaultFreeAllBitsSet) {
  const topo::Hypercube q(5);
  const fault::FaultSet none(q.num_nodes());
  const auto v = compute_safety_vectors(q, none);
  for (NodeId a = 0; a < q.num_nodes(); ++a) {
    for (unsigned k = 1; k <= 5; ++k) EXPECT_TRUE(v.bit(a, k));
    EXPECT_EQ(v.prefix_reach(a), 5u);
  }
}

TEST(SafetyVectors, FaultyNodesAllZero) {
  const topo::Hypercube q(4);
  const fault::FaultSet f(q.num_nodes(), {5});
  const auto v = compute_safety_vectors(q, f);
  EXPECT_EQ(v.raw(5), 0u);
  EXPECT_EQ(v.prefix_reach(5), 0u);
}

TEST(SafetyVectors, BitOneForEveryHealthyNode) {
  const auto sc = fault::scenario::fig3();
  const auto v = compute_safety_vectors(sc.cube, sc.faults);
  for (NodeId a = 0; a < 16; ++a) {
    if (sc.faults.is_healthy(a)) {
      EXPECT_TRUE(v.bit(a, 1));
    }
  }
}

/// Soundness against the exact oracle: V_a(k) = 1 implies an optimal
/// path to EVERY healthy node at distance exactly k. Exhaustive on Q4
/// (all <= 4-fault sets), randomized on Q5-Q7.
TEST(SafetyVectors, SoundnessExhaustiveQ4) {
  const topo::Hypercube q(4);
  for (std::uint32_t mask = 0; mask < (1u << 16); ++mask) {
    if (bits::popcount(mask) > 4) continue;
    fault::FaultSet f(q.num_nodes());
    for (NodeId a = 0; a < 16; ++a) {
      if ((mask >> a) & 1u) f.mark_faulty(a);
    }
    const auto v = compute_safety_vectors(q, f);
    const auto opt = analysis::optimal_reach_relation(q, f);
    for (NodeId a = 0; a < 16; ++a) {
      if (f.is_faulty(a)) continue;
      for (NodeId b = 0; b < 16; ++b) {
        if (b == a || f.is_faulty(b)) continue;
        const unsigned h = q.distance(a, b);
        if (v.bit(a, h)) {
          ASSERT_TRUE(opt[a][b])
              << "mask " << mask << ": " << a << " claims bit " << h
              << " but cannot optimally reach " << b;
        }
      }
    }
  }
}

class VectorSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(VectorSweep, SoundnessRandomized) {
  const unsigned n = GetParam();
  const topo::Hypercube q(n);
  Xoshiro256ss rng(n * 733);
  for (int t = 0; t < 8; ++t) {
    const auto f = fault::inject_uniform(q, 2 * n, rng);
    const auto v = compute_safety_vectors(q, f);
    const auto opt = analysis::optimal_reach_relation(q, f);
    for (NodeId a = 0; a < q.num_nodes(); ++a) {
      if (f.is_faulty(a)) continue;
      for (NodeId b = 0; b < q.num_nodes(); ++b) {
        if (b == a || f.is_faulty(b)) continue;
        if (v.bit(a, q.distance(a, b))) {
          ASSERT_TRUE(opt[a][b]);
        }
      }
    }
  }
}

TEST_P(VectorSweep, DominatesScalarLevels) {
  // S(a) >= k  =>  V_a(j) = 1 for all j <= k (the vector certifies at
  // least everything the level does).
  const unsigned n = GetParam();
  const topo::Hypercube q(n);
  Xoshiro256ss rng(n * 877);
  for (int t = 0; t < 10; ++t) {
    const auto f =
        fault::inject_uniform(q, rng.below(q.num_nodes() / 2), rng);
    const auto levels = compute_safety_levels(q, f);
    const auto v = compute_safety_vectors(q, f);
    for (NodeId a = 0; a < q.num_nodes(); ++a) {
      if (f.is_faulty(a)) continue;
      ASSERT_GE(v.prefix_reach(a), levels[a]) << "node " << a;
    }
  }
}

TEST_P(VectorSweep, RoutingGuarantees) {
  const unsigned n = GetParam();
  const topo::Hypercube q(n);
  Xoshiro256ss rng(n * 997);
  for (int t = 0; t < 10; ++t) {
    const auto f = fault::inject_uniform(q, 2 * n, rng);
    const auto v = compute_safety_vectors(q, f);
    for (int p = 0; p < 50; ++p) {
      const auto s = static_cast<NodeId>(rng.below(q.num_nodes()));
      const auto d = static_cast<NodeId>(rng.below(q.num_nodes()));
      if (s == d || f.is_faulty(s) || f.is_faulty(d)) continue;
      const auto r = route_unicast_sv(q, f, v, s, d);
      const unsigned h = q.distance(s, d);
      switch (r.status) {
        case RouteStatus::kDeliveredOptimal:
          ASSERT_EQ(r.hops(), h);
          break;
        case RouteStatus::kDeliveredSuboptimal:
          ASSERT_EQ(r.hops(), h + 2);
          break;
        case RouteStatus::kSourceRefused:
          break;
        case RouteStatus::kStuck:
          FAIL() << "vector routing stuck with consistent vectors";
        case RouteStatus::kDroppedSource:
        case RouteStatus::kDroppedNode:
        case RouteStatus::kDroppedLink:
          FAIL() << "a route without a ground judge cannot be dropped";
      }
      if (r.delivered()) {
        for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
          ASSERT_TRUE(f.is_healthy(r.path[i]));
          ASSERT_EQ(q.distance(r.path[i], r.path[i + 1]), 1u);
        }
      }
    }
  }
}

TEST_P(VectorSweep, FeasibilitySupersetOfLevels) {
  // Every unicast the level check accepts, the vector check accepts too
  // (both optimal conditions and the spare condition).
  const unsigned n = GetParam();
  const topo::Hypercube q(n);
  Xoshiro256ss rng(n * 555);
  for (int t = 0; t < 10; ++t) {
    const auto f = fault::inject_uniform(q, 2 * n, rng);
    const auto levels = compute_safety_levels(q, f);
    const auto v = compute_safety_vectors(q, f);
    for (int p = 0; p < 80; ++p) {
      const auto s = static_cast<NodeId>(rng.below(q.num_nodes()));
      const auto d = static_cast<NodeId>(rng.below(q.num_nodes()));
      if (s == d || f.is_faulty(s) || f.is_faulty(d)) continue;
      const auto lvl = decide_at_source(q, levels, s, d);
      const auto vec = decide_at_source_sv(q, v, s, d);
      if (lvl.optimal_feasible()) {
        ASSERT_TRUE(vec.optimal_feasible())
            << "level accepted optimally but vector refused";
      }
      if (lvl.feasible()) {
        ASSERT_TRUE(vec.feasible());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims4To7, VectorSweep,
                         ::testing::Values(4u, 5u, 6u, 7u));

TEST(SafetyVectors, StrictlyMoreFeasibleSomewhere) {
  // Find at least one configuration where the vector certifies an
  // optimal unicast the scalar level refuses — the point of the
  // extension.
  const topo::Hypercube q(6);
  Xoshiro256ss rng(20240701);
  bool found = false;
  for (int t = 0; t < 200 && !found; ++t) {
    const auto f = fault::inject_uniform(q, 14, rng);
    const auto levels = compute_safety_levels(q, f);
    const auto v = compute_safety_vectors(q, f);
    for (NodeId s = 0; s < q.num_nodes() && !found; ++s) {
      if (f.is_faulty(s)) continue;
      for (NodeId d = 0; d < q.num_nodes() && !found; ++d) {
        if (d == s || f.is_faulty(d)) continue;
        const auto lvl = decide_at_source(q, levels, s, d);
        const auto vec = decide_at_source_sv(q, v, s, d);
        found = vec.optimal_feasible() && !lvl.optimal_feasible();
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(SafetyVectors, PrefixReachEdgeCases) {
  SafetyVectors v(4, 2);
  EXPECT_EQ(v.prefix_reach(0), 0u);  // no bits set
  v.set_bit(0, 1);
  v.set_bit(0, 2);
  v.set_bit(0, 4);  // gap at 3
  EXPECT_EQ(v.prefix_reach(0), 2u);
}

}  // namespace
}  // namespace slcube::core
