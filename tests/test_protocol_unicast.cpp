// Distributed unicast over the simulator: status and path equal to the
// centralized router's on stabilized networks (exhaustively on Q1–Q4),
// latency accounting, and the mid-flight failure semantics of Section
// 2.2's discussion.
#include "sim/protocol_unicast.hpp"

#include <gtest/gtest.h>

#include "core/global_status.hpp"
#include "fault/injection.hpp"
#include "fault/scenario.hpp"
#include "obs/audit.hpp"
#include "sim/protocol_gs.hpp"

namespace slcube::sim {
namespace {

using core::RouteStatus;

TEST(SimUnicast, MatchesCentralizedRouterAllPairsFig1) {
  const auto sc = fault::scenario::fig1();
  Network net(sc.cube, sc.faults);
  run_gs_synchronous(net);
  const auto levels = core::compute_safety_levels(sc.cube, sc.faults);
  for (NodeId s = 0; s < 16; ++s) {
    if (sc.faults.is_faulty(s)) continue;
    for (NodeId d = 0; d < 16; ++d) {
      if (d == s || sc.faults.is_faulty(d)) continue;
      const auto centralized =
          core::route_unicast(sc.cube, sc.faults, levels, s, d);
      const auto sim = route_unicast_sim(net, s, d);
      ASSERT_EQ(sim.status, centralized.status);
      ASSERT_EQ(sim.path, centralized.path);
      ASSERT_EQ(sim.latency(), centralized.hops() * net.link_delay());
    }
  }
}

TEST(SimUnicast, MatchesCentralizedOnRandomCubes) {
  const topo::Hypercube q(6);
  Xoshiro256ss rng(3001);
  for (int t = 0; t < 8; ++t) {
    const auto f = fault::inject_uniform(q, 10, rng);
    Network net(q, f);
    run_gs_synchronous(net);
    const auto levels = core::compute_safety_levels(q, f);
    for (int p = 0; p < 40; ++p) {
      const auto s = static_cast<NodeId>(rng.below(q.num_nodes()));
      const auto d = static_cast<NodeId>(rng.below(q.num_nodes()));
      if (s == d || f.is_faulty(s) || f.is_faulty(d)) continue;
      const auto centralized = core::route_unicast(q, f, levels, s, d);
      const auto sim = route_unicast_sim(net, s, d);
      ASSERT_EQ(sim.status, centralized.status);
      ASSERT_EQ(sim.path, centralized.path);
    }
  }
}

/// Every node-fault set of Q1–Q4 after synchronous GS (65,812 sets,
/// 3,935,794 ordered healthy pairs), in four shards of the fault masks
/// so ctest can spread them over jobs: the simulated unicast, decided
/// from registers, takes core::route_unicast's status and path.
class ExhaustiveAgreement : public ::testing::TestWithParam<std::uint32_t> {};

constexpr std::uint32_t kShards = 4;

TEST_P(ExhaustiveAgreement, StatusAndPathEqualTheCoreRouter) {
  std::uint64_t sets = 0;
  for (unsigned n = 1; n <= 4; ++n) {
    const topo::Hypercube q(n);
    const auto nodes = static_cast<NodeId>(q.num_nodes());
    for (std::uint32_t mask = GetParam(); mask < (1u << nodes);
         mask += kShards, ++sets) {
      fault::FaultSet faults(q.num_nodes());
      for (NodeId a = 0; a < nodes; ++a) {
        if ((mask >> a) & 1u) faults.mark_faulty(a);
      }
      Network net(q, faults);
      run_gs_synchronous(net);
      const auto levels = core::compute_safety_levels(q, faults);
      for (NodeId s = 0; s < nodes; ++s) {
        if (faults.is_faulty(s)) continue;
        for (NodeId d = 0; d < nodes; ++d) {
          if (d == s || faults.is_faulty(d)) continue;
          const auto centralized =
              core::route_unicast(q, faults, levels, s, d);
          const auto sim = route_unicast_sim(net, s, d);
          ASSERT_EQ(sim.status, centralized.status)
              << "Q" << n << " fault mask " << mask << " s=" << s
              << " d=" << d;
          ASSERT_EQ(sim.path, centralized.path)
              << "Q" << n << " fault mask " << mask << " s=" << s
              << " d=" << d;
        }
      }
    }
  }
  // A quarter of every cube's masks.
  EXPECT_EQ(sets, 1u + 4u + 64u + 16'384u);
}

INSTANTIATE_TEST_SUITE_P(SimUnicast, ExhaustiveAgreement,
                         ::testing::Range(std::uint32_t{0}, kShards));

TEST(SimUnicast, TrivialSelfDelivery) {
  const topo::Hypercube q(3);
  Network net(q, fault::FaultSet(q.num_nodes()));
  const auto r = route_unicast_sim(net, 5, 5);
  EXPECT_EQ(r.status, RouteStatus::kDeliveredOptimal);
  EXPECT_EQ(r.latency(), 0u);
}

TEST(SimUnicast, RefusedSendsNothing) {
  const auto sc = fault::scenario::fig3();
  Network net(sc.cube, sc.faults);
  run_gs_synchronous(net);
  const auto before = net.stats().unicast_hops;
  const auto r = route_unicast_sim(net, 0b0111, 0b1110);
  EXPECT_EQ(r.status, RouteStatus::kSourceRefused);
  EXPECT_EQ(net.stats().unicast_hops, before);
}

TEST(SimUnicast, FailureAtInjectionKillingTheSourceSendsNothing) {
  const topo::Hypercube q(4);
  Network net(q, fault::FaultSet(q.num_nodes()));
  run_gs_synchronous(net);
  obs::AuditSink audit;
  net.set_trace(&audit);
  const auto before = net.stats().unicast_hops;
  const auto r =
      route_unicast_sim(net, 0b0000, 0b1111, {{net.now(), 0b0000}});
  EXPECT_EQ(r.status, RouteStatus::kDroppedSource);
  EXPECT_EQ(r.path, (analysis::Path{0b0000}));
  EXPECT_EQ(r.latency(), 0u);
  EXPECT_EQ(net.stats().unicast_hops, before);
  audit.finish();
  const obs::AuditReport report = audit.report();
  EXPECT_EQ(report.violations_total, 0u);
  EXPECT_EQ(report.routes_by_status.at("dropped-source"), 1u);
  EXPECT_EQ(report.sends, 0u);
}

TEST(SimUnicast, MidFlightFailureOfHolderLosesPacket) {
  // Kill the first-hop node just as the packet lands on it.
  const topo::Hypercube q(4);
  Network net(q, fault::FaultSet(q.num_nodes()));
  run_gs_synchronous(net);
  // Route 0000 -> 1111; first hop (lowest dim tie-break) is 0001.
  const auto r = route_unicast_sim(net, 0b0000, 0b1111,
                                   {{net.now() + 1, 0b0001}});
  EXPECT_EQ(r.status, RouteStatus::kDroppedNode);
  EXPECT_EQ(r.path, (analysis::Path{0b0000}));
  EXPECT_EQ(net.stats().dropped_dead_node, 1u);
}

TEST(SimUnicast, HolderKilledAsThePacketLandsEndsDroppedNode) {
  // 0000 -> 1111 goes 0000 -> 0001 -> 0011 -> ...; 0011 dies exactly as
  // the second hop arrives, so the network drops the packet there.
  const topo::Hypercube q(4);
  Network net(q, fault::FaultSet(q.num_nodes()));
  run_gs_synchronous(net);
  obs::RingBufferSink ring;
  net.set_trace(&ring);
  const auto r = route_unicast_sim(net, 0b0000, 0b1111,
                                   {{net.now() + 2, 0b0011}});
  EXPECT_EQ(r.status, RouteStatus::kDroppedNode);
  EXPECT_EQ(r.path, (analysis::Path{0b0000, 0b0001}));
  EXPECT_EQ(r.latency(), 2u);
  unsigned hops = 0;
  unsigned drops = 0;
  for (const obs::TraceEvent& ev : ring.snapshot()) {
    hops += std::holds_alternative<obs::HopEvent>(ev) ? 1u : 0u;
    if (const auto* drop = std::get_if<obs::MessageDropEvent>(&ev)) {
      ++drops;
      EXPECT_EQ(drop->from, 0b0001u);
      EXPECT_EQ(drop->to, 0b0011u);
      EXPECT_STREQ(drop->reason, "dead-node");
    }
  }
  EXPECT_EQ(hops, r.hops());
  EXPECT_EQ(drops, 1u);
  // One send per traversal: the landed hop and the lost one.
  EXPECT_EQ(net.stats().unicast_hops, 2u);
  const obs::AuditReport report = obs::audit_ring(ring);
  EXPECT_EQ(report.violations_total, 0u)
      << (report.details.empty() ? std::string("(no detail)")
                                 : report.details.front().detail);
  EXPECT_EQ(report.routes_by_status.at("dropped-node"), 1u);
}

TEST(SimUnicast, SenderSeesFreshDeathAndReroutes) {
  // Kill a node two hops ahead before the packet reaches its sender:
  // the intermediate holder sees the death (assumption 2) and picks a
  // different preferred neighbor — delivery still succeeds.
  const topo::Hypercube q(4);
  Network net(q, fault::FaultSet(q.num_nodes()));
  run_gs_synchronous(net);
  // Path would be 0000 -> 0001 -> 0011 -> 0111 -> 1111; kill 0011 at
  // t=1 (while the packet flies toward 0001).
  const auto r = route_unicast_sim(net, 0b0000, 0b1111,
                                   {{net.now() + 1, 0b0011}});
  EXPECT_EQ(r.status, RouteStatus::kDeliveredOptimal);
  EXPECT_EQ(r.path.size(), 5u);  // still an optimal 4-hop route
  for (const NodeId hop : r.path) EXPECT_NE(hop, 0b0011u);
}

TEST(SimUnicast, StuckWhenEveryPreferredDies) {
  // Every preferred neighbor of the first holder dies mid-flight: it
  // cannot forward and aborts (paper: "this unicast might either be
  // aborted or be re-routed ... after all the safety levels are
  // stabilized"). Route 000 -> 111 lands on 001 at t=1; kill 011 and
  // 101 then, and 001's preferred neighbors {011, 101} are both dead.
  const topo::Hypercube q(3);
  Network net(q, fault::FaultSet(q.num_nodes()));
  run_gs_synchronous(net);
  const auto r = route_unicast_sim(net, 0b000, 0b111,
                                   {{net.now() + 1, 0b011},
                                    {net.now() + 1, 0b101}});
  EXPECT_EQ(r.status, RouteStatus::kStuck);
  EXPECT_EQ(r.path.back(), 0b001u);
}

TEST(SimUnicast, ReRouteAfterStabilizationRecovers) {
  // The paper's recovery recipe: after an abort, stabilize levels and
  // re-issue from the stuck node.
  const topo::Hypercube q(3);
  Network net(q, fault::FaultSet(q.num_nodes()));
  run_gs_synchronous(net);
  const auto r1 = route_unicast_sim(net, 0b000, 0b111,
                                    {{net.now() + 1, 0b011},
                                     {net.now() + 1, 0b101}});
  ASSERT_EQ(r1.status, RouteStatus::kStuck);
  // Levels are stale; stabilize (no NEW failures, the two deaths already
  // happened — re-announce by recomputing neighbors of the dead).
  stabilize_after_failures(net, {});
  // Trigger cascades from the dead nodes' neighborhoods explicitly: the
  // deaths occurred inside the unicast, so run a full synchronous sweep.
  run_gs_synchronous(net);
  const auto r2 = route_unicast_sim(net, r1.path.back(), 0b111);
  EXPECT_TRUE(r2.delivered());
  EXPECT_EQ(r2.path.back(), 0b111u);
}

TEST(SimUnicast, LatencyEqualsHopsTimesDelay) {
  const topo::Hypercube q(5);
  Network net(q, fault::FaultSet(q.num_nodes()), /*link_delay=*/3);
  const auto r = route_unicast_sim(net, 0, 0b11111);
  EXPECT_EQ(r.status, RouteStatus::kDeliveredOptimal);
  EXPECT_EQ(r.latency(), 5u * 3u);
}

}  // namespace
}  // namespace slcube::sim
