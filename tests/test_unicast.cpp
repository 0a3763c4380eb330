// The Section 3 unicast algorithm: the paper's two Fig. 1 walk-throughs
// and three Fig. 3 cases, Theorem 3's guarantees under randomized fault
// sweeps, the fewer-than-n-faults never-fails guarantee (Property 2),
// and the tie-break ablation.
#include "core/unicast.hpp"

#include <gtest/gtest.h>

#include "analysis/bfs.hpp"
#include "analysis/path.hpp"
#include "common/format.hpp"
#include "core/egs.hpp"
#include "core/global_status.hpp"
#include "fault/injection.hpp"
#include "fault/scenario.hpp"
#include "topology/topology_view.hpp"

namespace slcube::core {
namespace {

analysis::Path bits_path(std::initializer_list<const char*> hops) {
  analysis::Path p;
  for (const char* h : hops) p.push_back(from_bits(h));
  return p;
}

class Fig1Unicast : public ::testing::Test {
 protected:
  Fig1Unicast()
      : sc_(fault::scenario::fig1()),
        levels_(compute_safety_levels(sc_.cube, sc_.faults)) {}
  fault::scenario::CubeScenario sc_;
  SafetyLevels levels_;
};

TEST_F(Fig1Unicast, WalkThroughOne) {
  // s1 = 1110, d1 = 0001: C1 holds (S = 4 = H); the paper's route is
  // 1110 -> 1111 -> 1101 -> 0101 -> 0001 (its final "node 1100" is the
  // documented typo for 0001).
  const auto r = route_unicast(sc_.cube, sc_.faults, levels_,
                               from_bits("1110"), from_bits("0001"));
  EXPECT_EQ(r.status, RouteStatus::kDeliveredOptimal);
  EXPECT_TRUE(r.decision.c1);
  EXPECT_EQ(r.decision.hamming, 4u);
  EXPECT_EQ(r.path, bits_path({"1110", "1111", "1101", "0101", "0001"}));
}

TEST_F(Fig1Unicast, WalkThroughTwo) {
  // s2 = 0001, d2 = 1100: S(source) = 1 < H = 3, but preferred neighbors
  // 0000 and 0101 have level 2 = H - 1, so C2 gives an optimal route; the
  // paper picks 0000 and shows 0001 -> 0000 -> 1000 -> 1100.
  const auto r = route_unicast(sc_.cube, sc_.faults, levels_,
                               from_bits("0001"), from_bits("1100"));
  EXPECT_EQ(r.status, RouteStatus::kDeliveredOptimal);
  EXPECT_FALSE(r.decision.c1);
  EXPECT_TRUE(r.decision.c2);
  EXPECT_EQ(r.path, bits_path({"0001", "0000", "1000", "1100"}));
}

TEST_F(Fig1Unicast, SafeSourceAlwaysOptimal) {
  // "if the source node is safe ... optimality is automatically
  // guaranteed for any unicasting."
  for (NodeId s = 0; s < 16; ++s) {
    if (!levels_.is_safe(s)) continue;
    for (NodeId d = 0; d < 16; ++d) {
      if (d == s || sc_.faults.is_faulty(d)) continue;
      const auto r = route_unicast(sc_.cube, sc_.faults, levels_, s, d);
      EXPECT_EQ(r.status, RouteStatus::kDeliveredOptimal)
          << to_bits(s, 4) << " -> " << to_bits(d, 4);
      EXPECT_EQ(r.hops(), sc_.cube.distance(s, d));
    }
  }
}

class Fig3Unicast : public ::testing::Test {
 protected:
  Fig3Unicast()
      : sc_(fault::scenario::fig3()),
        levels_(compute_safety_levels(sc_.cube, sc_.faults)) {}
  fault::scenario::CubeScenario sc_;
  SafetyLevels levels_;
};

TEST_F(Fig3Unicast, OptimalInsideBigComponent) {
  // s1 = 0101, d1 = 0000: H = 2 = S(source), C1 optimal.
  const auto r = route_unicast(sc_.cube, sc_.faults, levels_,
                               from_bits("0101"), from_bits("0000"));
  EXPECT_EQ(r.status, RouteStatus::kDeliveredOptimal);
  EXPECT_TRUE(r.decision.c1);
  EXPECT_EQ(r.hops(), 2u);
}

TEST_F(Fig3Unicast, OptimalViaC2) {
  // s2 = 0111, d2 = 1011: S(source) = 1 < H = 2, but preferred neighbor
  // 0011 has level 2 >= H - 1.
  const auto r = route_unicast(sc_.cube, sc_.faults, levels_,
                               from_bits("0111"), from_bits("1011"));
  EXPECT_EQ(r.status, RouteStatus::kDeliveredOptimal);
  EXPECT_FALSE(r.decision.c1);
  EXPECT_TRUE(r.decision.c2);
  EXPECT_EQ(r.path, bits_path({"0111", "0011", "1011"}));
}

TEST_F(Fig3Unicast, RefusedAcrossThePartition) {
  // 0111 -> 1110: C1 (1 < 2), C2 (preferred 0110, 1111 faulty) and C3
  // (spares 0101, 0011 at level 2 < 3) all fail -> abort AT THE SOURCE.
  const auto r = route_unicast(sc_.cube, sc_.faults, levels_,
                               from_bits("0111"), from_bits("1110"));
  EXPECT_EQ(r.status, RouteStatus::kSourceRefused);
  EXPECT_FALSE(r.decision.c1);
  EXPECT_FALSE(r.decision.c2);
  EXPECT_FALSE(r.decision.c3);
  EXPECT_EQ(r.path.size(), 1u);  // nothing was sent
}

TEST_F(Fig3Unicast, IsolatedSourceAlwaysRefused) {
  // "any unicasting initiated at node 1110 will fail" — and the source
  // detects it.
  for (NodeId d = 0; d < 16; ++d) {
    if (d == from_bits("1110") || sc_.faults.is_faulty(d)) continue;
    const auto r = route_unicast(sc_.cube, sc_.faults, levels_,
                                 from_bits("1110"), d);
    EXPECT_EQ(r.status, RouteStatus::kSourceRefused) << to_bits(d, 4);
  }
}

TEST_F(Fig3Unicast, UnreachableAlwaysRefusedReachableOftenDelivered) {
  // The guaranteed direction (Theorem 2 makes C1/C2/C3 sufficient for
  // reachability): every cross-partition pair is refused AT THE SOURCE.
  // The converse does not hold — refusals are conservative: a reachable
  // destination may be refused when no optimal/H+2 guarantee exists
  // (e.g. 1000 -> 0111 here: H = 4 but S(1000) = 1 and no neighbor
  // qualifies). Exhaustive all-pairs check of both facts.
  const topo::HypercubeView view(sc_.cube);
  unsigned conservative_refusals = 0;
  for (NodeId s = 0; s < 16; ++s) {
    if (sc_.faults.is_faulty(s)) continue;
    const auto dist = analysis::bfs_distances(view, sc_.faults, s);
    for (NodeId d = 0; d < 16; ++d) {
      if (d == s || sc_.faults.is_faulty(d)) continue;
      const auto r = route_unicast(sc_.cube, sc_.faults, levels_, s, d);
      if (dist[d] == analysis::kUnreachable) {
        EXPECT_EQ(r.status, RouteStatus::kSourceRefused)
            << to_bits(s, 4) << " -> " << to_bits(d, 4)
            << " unreachable but not refused";
      } else if (r.status == RouteStatus::kSourceRefused) {
        ++conservative_refusals;
      } else {
        EXPECT_TRUE(r.delivered());
      }
    }
  }
  // The conservative case genuinely occurs in this scenario.
  EXPECT_GT(conservative_refusals, 0u);
}

TEST(Unicast, SourceEqualsDestination) {
  const topo::Hypercube q(4);
  const fault::FaultSet none(q.num_nodes());
  const auto lv = compute_safety_levels(q, none);
  const auto r = route_unicast(q, none, lv, 5, 5);
  EXPECT_EQ(r.status, RouteStatus::kDeliveredOptimal);
  EXPECT_EQ(r.hops(), 0u);
}

TEST(Unicast, FaultFreeAlwaysOptimalEveryPair) {
  const topo::Hypercube q(5);
  const fault::FaultSet none(q.num_nodes());
  const auto lv = compute_safety_levels(q, none);
  for (NodeId s = 0; s < q.num_nodes(); ++s) {
    for (NodeId d = 0; d < q.num_nodes(); ++d) {
      const auto r = route_unicast(q, none, lv, s, d);
      ASSERT_EQ(r.status, RouteStatus::kDeliveredOptimal);
      ASSERT_EQ(r.hops(), q.distance(s, d));
    }
  }
}

TEST(Unicast, SuboptimalPathTakesSpareDetour) {
  // Build a case where C1/C2 fail but C3 holds: the Fig. 4 node-fault
  // pattern without the link fault. Source 1101 has faulty preferred
  // neighbors toward 1000's neighbor... use scenario fig4's node faults,
  // s = 1101, d = 1001: preferred dims {2} (H=1)? Use a crafted case:
  // faults {0100, 0111}: source 0101 (level 1), dest 0110 (H = 2).
  const topo::Hypercube q(4);
  const fault::FaultSet f(q.num_nodes(), {0b0100, 0b0111});
  const auto lv = compute_safety_levels(q, f);
  const NodeId s = 0b0101, d = 0b0110;
  ASSERT_EQ(q.distance(s, d), 2u);
  const auto dec = decide_at_source(q, lv, s, d);
  if (!dec.c1 && !dec.c2 && dec.c3) {
    const auto r = route_unicast(q, f, lv, s, d);
    EXPECT_EQ(r.status, RouteStatus::kDeliveredSuboptimal);
    EXPECT_EQ(r.hops(), 4u);
  } else {
    // If the level pattern routes optimally, that is fine too — but it
    // must deliver.
    EXPECT_TRUE(route_unicast(q, f, lv, s, d).delivered());
  }
}

/// Theorem 3 sweep: whenever the algorithm delivers, path length honors
/// the promised class; whenever C1/C2 hold at the source the path is
/// exactly H; whenever only C3 holds it is exactly H + 2 — verified with
/// full path validity against the real fault set.
class Theorem3Sweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(Theorem3Sweep, GuaranteesHold) {
  const unsigned n = GetParam();
  const topo::Hypercube q(n);
  const topo::HypercubeView view(q);
  Xoshiro256ss rng(n * 12345);
  for (int t = 0; t < 20; ++t) {
    const auto f = fault::inject_uniform(q, rng.below(q.num_nodes() / 2),
                                         rng);
    const auto lv = compute_safety_levels(q, f);
    for (int p = 0; p < 60; ++p) {
      const auto s = static_cast<NodeId>(rng.below(q.num_nodes()));
      const auto d = static_cast<NodeId>(rng.below(q.num_nodes()));
      if (s == d || f.is_faulty(s) || f.is_faulty(d)) continue;
      const auto r = route_unicast(q, f, lv, s, d);
      const unsigned h = q.distance(s, d);
      switch (r.status) {
        case RouteStatus::kDeliveredOptimal: {
          ASSERT_EQ(r.hops(), h);
          const auto chk = analysis::check_path(view, f, r.path);
          ASSERT_EQ(chk.cls, analysis::PathClass::kOptimal) << chk.error;
          break;
        }
        case RouteStatus::kDeliveredSuboptimal: {
          ASSERT_EQ(r.hops(), h + 2);
          ASSERT_FALSE(r.decision.c1 || r.decision.c2);
          ASSERT_TRUE(r.decision.c3);
          const auto chk = analysis::check_path(view, f, r.path);
          ASSERT_EQ(chk.cls, analysis::PathClass::kSuboptimal) << chk.error;
          break;
        }
        case RouteStatus::kSourceRefused:
          ASSERT_FALSE(r.decision.feasible());
          break;
        case RouteStatus::kStuck:
          FAIL() << "stuck with consistent levels: "
                 << analysis::format_path(r.path, n);
        case RouteStatus::kDroppedSource:
        case RouteStatus::kDroppedNode:
        case RouteStatus::kDroppedLink:
          FAIL() << "a route without a ground judge cannot be dropped";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims3To9, Theorem3Sweep,
                         ::testing::Values(3u, 4u, 5u, 6u, 7u, 8u, 9u));

/// Property 2 corollary: with fewer than n faults the algorithm NEVER
/// refuses — every unicast is optimal or suboptimal.
class NeverFailsSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(NeverFailsSweep, FewerThanNFaultsAlwaysDelivers) {
  const unsigned n = GetParam();
  const topo::Hypercube q(n);
  Xoshiro256ss rng(n * 999);
  for (int t = 0; t < 15; ++t) {
    const auto f = fault::inject_uniform(q, n - 1, rng);
    const auto lv = compute_safety_levels(q, f);
    for (int p = 0; p < 60; ++p) {
      const auto s = static_cast<NodeId>(rng.below(q.num_nodes()));
      const auto d = static_cast<NodeId>(rng.below(q.num_nodes()));
      if (s == d || f.is_faulty(s) || f.is_faulty(d)) continue;
      const auto r = route_unicast(q, f, lv, s, d);
      ASSERT_TRUE(r.delivered())
          << n << "-cube with " << n - 1 << " faults refused "
          << to_bits(s, n) << " -> " << to_bits(d, n);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims3To9, NeverFailsSweep,
                         ::testing::Values(3u, 4u, 5u, 6u, 7u, 8u, 9u));

TEST(Unicast, RandomTieBreakStillMeetsGuarantees) {
  const topo::Hypercube q(6);
  Xoshiro256ss rng(4242);
  Xoshiro256ss tie_rng(777);
  UnicastOptions opts;
  opts.tie_break = TieBreak::kRandom;
  opts.rng = &tie_rng;
  for (int t = 0; t < 10; ++t) {
    const auto f = fault::inject_uniform(q, 5, rng);
    const auto lv = compute_safety_levels(q, f);
    for (int p = 0; p < 40; ++p) {
      const auto s = static_cast<NodeId>(rng.below(q.num_nodes()));
      const auto d = static_cast<NodeId>(rng.below(q.num_nodes()));
      if (s == d || f.is_faulty(s) || f.is_faulty(d)) continue;
      const auto r = route_unicast(q, f, lv, s, d, opts);
      ASSERT_TRUE(r.delivered());
      ASSERT_LE(r.hops(), q.distance(s, d) + 2);
    }
  }
}

TEST(Unicast, StaleLevelsCanGetStuckButNeverLoop) {
  // Feed deliberately unstabilized levels (GS capped at one round): the
  // route may get stuck, but the navigation-vector discipline still
  // bounds the walk by H + 2 hops.
  const topo::Hypercube q(6);
  Xoshiro256ss rng(31337);
  for (int t = 0; t < 20; ++t) {
    const auto f = fault::inject_uniform(q, 20, rng);
    GsOptions capped;
    capped.max_rounds = 1;
    const auto stale = run_gs(q, f, capped);
    for (int p = 0; p < 30; ++p) {
      const auto s = static_cast<NodeId>(rng.below(q.num_nodes()));
      const auto d = static_cast<NodeId>(rng.below(q.num_nodes()));
      if (s == d || f.is_faulty(s) || f.is_faulty(d)) continue;
      const auto r = route_unicast(q, f, stale.levels, s, d);
      ASSERT_LE(r.hops(), q.distance(s, d) + 2);
    }
  }
}

// The one place the decision views must differ. A stale table still
// reads the (now healthy) destination 1 as level 0. For the plain view
// level 0 means faulty (Section 3), so the last hop has no candidate and
// the route is stuck; the EGS view's footnote-3 final hop crosses any
// healthy link into the destination, whatever its public level.
TEST(Unicast, StaleZeroDestinationStuckForPlainViewDeliveredByEgs) {
  const topo::Hypercube q(3);
  const fault::FaultSet none(q.num_nodes());
  const auto stale =
      compute_safety_levels(q, fault::FaultSet(q.num_nodes(), {1}));
  ASSERT_EQ(stale[1], 0);

  const auto plain = route_unicast(q, none, stale, 0, 1);
  EXPECT_EQ(plain.status, RouteStatus::kStuck);
  EXPECT_STREQ(to_string(plain.status), "stuck");
  EXPECT_EQ(plain.path, (analysis::Path{0}));

  const fault::LinkFaultSet no_links(q);
  const auto egs =
      route_unicast_egs(q, none, no_links, EgsViews{stale, stale}, 0, 1);
  EXPECT_EQ(egs.status, RouteStatus::kDeliveredOptimal);
  EXPECT_STREQ(to_string(egs.status), "delivered-optimal");
  EXPECT_EQ(egs.path, (analysis::Path{0, 1}));
}

TEST(SourceDecision, ConditionsMatchDefinition) {
  const auto sc = fault::scenario::fig1();
  const auto lv = compute_safety_levels(sc.cube, sc.faults);
  // 1110 -> 0001: C1 (4 >= 4).
  auto dec = decide_at_source(sc.cube, lv, from_bits("1110"),
                              from_bits("0001"));
  EXPECT_TRUE(dec.c1);
  EXPECT_TRUE(dec.optimal_feasible());
  // 0001 -> 1100: C2 only.
  dec = decide_at_source(sc.cube, lv, from_bits("0001"), from_bits("1100"));
  EXPECT_FALSE(dec.c1);
  EXPECT_TRUE(dec.c2);
}

TEST(GreedyAblation, FaultFreeMatchesChecked) {
  const topo::Hypercube q(4);
  const fault::FaultSet none(q.num_nodes());
  const auto lv = compute_safety_levels(q, none);
  for (NodeId s = 0; s < 16; ++s) {
    for (NodeId d = 0; d < 16; ++d) {
      if (s == d) continue;
      const auto checked = route_unicast(q, none, lv, s, d);
      const auto greedy = route_unicast_greedy(q, none, lv, s, d);
      ASSERT_EQ(greedy.path, checked.path);
    }
  }
}

TEST(GreedyAblation, DeliveriesAreAlwaysOptimal) {
  const topo::Hypercube q(6);
  Xoshiro256ss rng(616);
  for (int t = 0; t < 15; ++t) {
    const auto f = fault::inject_uniform(q, 16, rng);
    const auto lv = compute_safety_levels(q, f);
    for (int p = 0; p < 40; ++p) {
      const auto s = static_cast<NodeId>(rng.below(q.num_nodes()));
      const auto d = static_cast<NodeId>(rng.below(q.num_nodes()));
      if (s == d || f.is_faulty(s) || f.is_faulty(d)) continue;
      const auto r = route_unicast_greedy(q, f, lv, s, d);
      if (r.status == RouteStatus::kDeliveredOptimal) {
        ASSERT_EQ(r.hops(), q.distance(s, d));
      } else {
        ASSERT_EQ(r.status, RouteStatus::kStuck);
      }
    }
  }
}

TEST(GreedyAblation, NeverStuckWhenCheckedSaysOptimalFeasible) {
  // When C1 or C2 holds, the greedy walk IS the checked optimal walk:
  // same selections, same delivery.
  const topo::Hypercube q(6);
  Xoshiro256ss rng(617);
  for (int t = 0; t < 15; ++t) {
    const auto f = fault::inject_uniform(q, 10, rng);
    const auto lv = compute_safety_levels(q, f);
    for (int p = 0; p < 40; ++p) {
      const auto s = static_cast<NodeId>(rng.below(q.num_nodes()));
      const auto d = static_cast<NodeId>(rng.below(q.num_nodes()));
      if (s == d || f.is_faulty(s) || f.is_faulty(d)) continue;
      if (!decide_at_source(q, lv, s, d).optimal_feasible()) continue;
      const auto r = route_unicast_greedy(q, f, lv, s, d);
      ASSERT_EQ(r.status, RouteStatus::kDeliveredOptimal);
    }
  }
}

TEST(GreedyAblation, CanSalvageSomeRefusedPairs) {
  // The point of the ablation: some refused pairs ARE optimally
  // reachable, and the greedy walk finds a fraction of them — at the
  // cost of mid-route death on others (traffic the checked scheme never
  // wastes).
  const topo::Hypercube q(6);
  Xoshiro256ss rng(618);
  unsigned salvaged = 0, died = 0;
  for (int t = 0; t < 60; ++t) {
    const auto f = fault::inject_uniform(q, 20, rng);
    const auto lv = compute_safety_levels(q, f);
    for (int p = 0; p < 40; ++p) {
      const auto s = static_cast<NodeId>(rng.below(q.num_nodes()));
      const auto d = static_cast<NodeId>(rng.below(q.num_nodes()));
      if (s == d || f.is_faulty(s) || f.is_faulty(d)) continue;
      const auto checked = route_unicast(q, f, lv, s, d);
      if (checked.status != RouteStatus::kSourceRefused) continue;
      const auto greedy = route_unicast_greedy(q, f, lv, s, d);
      if (greedy.delivered()) {
        ++salvaged;
      } else {
        ++died;
      }
    }
  }
  EXPECT_GT(salvaged, 0u);
  EXPECT_GT(died, 0u);
}

TEST(RouteStatusNames, ToString) {
  EXPECT_STREQ(to_string(RouteStatus::kDeliveredOptimal),
               "delivered-optimal");
  EXPECT_STREQ(to_string(RouteStatus::kDeliveredSuboptimal),
               "delivered-suboptimal");
  EXPECT_STREQ(to_string(RouteStatus::kSourceRefused), "source-refused");
  EXPECT_STREQ(to_string(RouteStatus::kStuck), "stuck");
}

}  // namespace
}  // namespace slcube::core
