// End-to-end integration tests of the paper's headline claims, combining
// several modules at once (GS + routing + analysis + baselines + sim).
#include <gtest/gtest.h>

#include "analysis/bfs.hpp"
#include "analysis/components.hpp"
#include "baselines/chiu_wu.hpp"
#include "baselines/lee_hayes.hpp"
#include "baselines/safety_level_router.hpp"
#include "common/stats.hpp"
#include "core/global_status.hpp"
#include "core/properties.hpp"
#include "core/unicast.hpp"
#include "fault/injection.hpp"
#include "sim/protocol_gs.hpp"
#include "sim/protocol_unicast.hpp"
#include "topology/topology_view.hpp"
#include "workload/pair_sampler.hpp"

namespace slcube {
namespace {

/// Headline 1: "Optimal unicasting between two nodes is guaranteed if the
/// safety level of the source node is no less than the Hamming distance."
TEST(PaperClaims, AbstractOptimalityGuarantee) {
  const topo::Hypercube q(7);
  Xoshiro256ss rng(42);
  for (int t = 0; t < 10; ++t) {
    const auto f = fault::inject_uniform(q, 20, rng);
    const auto lv = core::compute_safety_levels(q, f);
    for (int p = 0; p < 200; ++p) {
      const auto s = static_cast<NodeId>(rng.below(q.num_nodes()));
      const auto d = static_cast<NodeId>(rng.below(q.num_nodes()));
      if (s == d || f.is_faulty(s) || f.is_faulty(d)) continue;
      if (lv[s] < q.distance(s, d)) continue;
      const auto r = core::route_unicast(q, f, lv, s, d);
      ASSERT_EQ(r.status, core::RouteStatus::kDeliveredOptimal);
      ASSERT_EQ(r.hops(), q.distance(s, d));
    }
  }
}

/// Headline 2: with fewer than n faults the scheme is never worse than
/// H + 2, while Lee-Hayes/Chiu-Wu keep their weaker bounds and the
/// safety-level scheme never refuses.
TEST(PaperClaims, FewerThanNFaultsComparison) {
  const topo::Hypercube q(7);
  Xoshiro256ss rng(43);
  baselines::SafetyLevelRouter sl;
  baselines::LeeHayesRouter lh;
  baselines::ChiuWuRouter cw;
  for (int t = 0; t < 8; ++t) {
    const auto f = fault::inject_uniform(q, 6, rng);
    sl.prepare(q, f);
    lh.prepare(q, f);
    cw.prepare(q, f);
    for (int p = 0; p < 60; ++p) {
      const auto pair = workload::sample_uniform_pair(f, rng);
      ASSERT_TRUE(pair.has_value());
      const unsigned h = q.distance(pair->s, pair->d);
      const auto a = sl.route(pair->s, pair->d);
      ASSERT_TRUE(a.delivered);
      ASSERT_LE(a.hops(), h + 2);
      const auto b = lh.route(pair->s, pair->d);
      if (b.delivered) {
        ASSERT_LE(b.hops(), h + 2);
      }
      const auto c = cw.route(pair->s, pair->d);
      if (c.delivered) {
        ASSERT_LE(c.hops(), h + 4);
      }
    }
  }
}

/// Headline 3 (the novelty): in disconnected hypercubes the safety-level
/// scheme still unicasts within components and detects cross-partition
/// unicasts at the source, while both safe-node schemes are inapplicable.
TEST(PaperClaims, DisconnectedCubeHeadline) {
  const topo::Hypercube q(6);
  const topo::HypercubeView view(q);
  Xoshiro256ss rng(44);
  for (int t = 0; t < 6; ++t) {
    NodeId victim = 0;
    const auto f = fault::inject_isolation(q, 2, rng, victim);
    const auto comps = analysis::connected_components(view, f);
    ASSERT_TRUE(comps.disconnected());

    // Theorem 4: both safe-node schemes are dead.
    ASSERT_EQ(core::check_theorem4(q, f), "");

    baselines::SafetyLevelRouter sl;
    sl.prepare(q, f);

    // Every unicast toward the isolated victim is refused at the source.
    for (int p = 0; p < 30; ++p) {
      const auto s = static_cast<NodeId>(rng.below(q.num_nodes()));
      if (f.is_faulty(s) || s == victim) continue;
      const auto a = sl.route(s, victim);
      ASSERT_TRUE(a.refused);
      ASSERT_EQ(a.hops(), 0u) << "failure must be detected without traffic";
    }

    // Unicasts inside the big component still work when feasibility
    // holds; count that a healthy fraction does.
    unsigned feasible = 0, total = 0;
    for (int p = 0; p < 100; ++p) {
      const auto pair = workload::sample_uniform_pair(f, rng);
      if (!pair || pair->s == victim || pair->d == victim) continue;
      ++total;
      feasible += sl.route(pair->s, pair->d).delivered ? 1u : 0u;
    }
    ASSERT_GT(total, 0u);
    EXPECT_GT(static_cast<double>(feasible) / total, 0.5);
  }
}

/// Headline 4: rounds — GS needs at most n-1 rounds; the distributed
/// execution agrees with the centralized one; with few faults the average
/// is far below the bound (Fig. 2's claim: < 2 rounds when faults < n).
TEST(PaperClaims, RoundsClaimSevenCube) {
  const topo::Hypercube q(7);
  Xoshiro256ss rng(45);
  RunningStat rounds;
  for (int t = 0; t < 60; ++t) {
    const auto f = fault::inject_uniform(q, 6, rng);  // < n = 7 faults
    const auto gs = core::run_gs(q, f);
    ASSERT_LE(gs.rounds_to_stabilize, 6u);
    rounds.add(gs.rounds_to_stabilize);
  }
  EXPECT_LT(rounds.mean(), 2.0)
      << "Fig. 2: average rounds < 2 for fewer than 7 faults";
}

/// Headline 5: the fully distributed pipeline — message-level GS then
/// message-level unicasts — delivers with optimal latency whenever the
/// source check passes, end to end in the simulator.
TEST(PaperClaims, DistributedEndToEnd) {
  const topo::Hypercube q(6);
  Xoshiro256ss rng(46);
  for (int t = 0; t < 5; ++t) {
    const auto f = fault::inject_uniform(q, 5, rng);
    sim::Network net(q, f);
    const auto gs = sim::run_gs_synchronous(net);
    ASSERT_LE(gs.rounds, 5u);
    for (int p = 0; p < 30; ++p) {
      const auto pair = workload::sample_uniform_pair(f, rng);
      ASSERT_TRUE(pair.has_value());
      const auto r = sim::route_unicast_sim(net, pair->s, pair->d);
      ASSERT_TRUE(r.delivered());
      ASSERT_LE(r.latency(),
                (q.distance(pair->s, pair->d) + 2) * net.link_delay());
    }
  }
}

/// Headline 6: safety levels are strictly more permissive than safe-node
/// classifications — whenever Lee-Hayes or Chiu-Wu delivers, the
/// safety-level scheme delivers too (on the same fault set), and there
/// exist cases where only the safety-level scheme delivers.
TEST(PaperClaims, StrictlyMorePermissive) {
  const topo::Hypercube q(6);
  Xoshiro256ss rng(47);
  baselines::SafetyLevelRouter sl;
  baselines::LeeHayesRouter lh;
  bool sl_only = false;
  for (int t = 0; t < 10; ++t) {
    const auto f = fault::inject_uniform(q, 8, rng);
    sl.prepare(q, f);
    lh.prepare(q, f);
    for (int p = 0; p < 60; ++p) {
      const auto pair = workload::sample_uniform_pair(f, rng);
      ASSERT_TRUE(pair.has_value());
      const auto a = sl.route(pair->s, pair->d);
      const auto b = lh.route(pair->s, pair->d);
      if (b.delivered) {
        ASSERT_TRUE(a.delivered)
            << "LH delivered but safety-level refused: impossible";
      }
      sl_only |= a.delivered && !b.delivered;
    }
  }
  EXPECT_TRUE(sl_only);
}

}  // namespace
}  // namespace slcube
