// slcube::obs — the trace audit engine: zero violations on everything
// the real producers emit (core router sweeps dims 3-8 with fault loads
// up to disconnection, sim missions with GS waves, churn and periodic
// refresh), and exactly the right violation on hand-corrupted synthetic
// traces (wrong nav bit, H+1 spare route, out-of-order GS rounds, ...).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/egs.hpp"
#include "core/global_status.hpp"
#include "core/unicast.hpp"
#include "fault/injection.hpp"
#include "obs/audit.hpp"
#include "obs/jsonl.hpp"
#include "sim/protocol_gs.hpp"
#include "sim/protocol_unicast.hpp"
#include "workload/pair_sampler.hpp"

namespace slcube::obs {
namespace {

std::uint64_t kind_count(const AuditReport& r, ViolationKind k) {
  return r.violations_by_kind[static_cast<std::size_t>(k)];
}

// --- the oracle accepts every real producer ------------------------------

TEST(Audit, CoreRoutingSweepIsCleanDims3To8) {
  Xoshiro256ss rng(0xA0D17);
  for (unsigned n = 3; n <= 8; ++n) {
    const topo::Hypercube cube(n);
    AuditConfig config;
    config.dimension = n;
    AuditSink audit(config);
    core::UnicastOptions uo;
    uo.trace = &audit;
    // Fault loads from none to cube-shattering (half the nodes dead).
    const std::uint64_t loads[] = {0, 1, n - 1, n, 2ull * n,
                                   cube.num_nodes() / 2};
    std::uint64_t routed = 0;
    for (const std::uint64_t fc : loads) {
      for (int trial = 0; trial < 8; ++trial) {
        const auto f = fault::inject_uniform(cube, fc, rng);
        if (f.healthy_count() < 2) continue;
        const auto lv = core::compute_safety_levels(cube, f);
        for (int p = 0; p < 16; ++p) {
          const auto pair = workload::sample_uniform_pair(f, rng);
          if (!pair) break;
          (void)core::route_unicast(cube, f, lv, pair->s, pair->d, uo);
          ++routed;
        }
      }
    }
    audit.finish();
    const AuditReport report = audit.report();
    EXPECT_EQ(report.violations_total, 0u)
        << "dim " << n << ": " << (report.details.empty()
                                       ? std::string("(no detail)")
                                       : report.details.front().detail);
    EXPECT_EQ(report.routes, routed);
    EXPECT_TRUE(report.clean());
  }
}

TEST(Audit, SimMissionWithChurnAndPeriodicGsIsClean) {
  Xoshiro256ss rng(0x51171);
  for (unsigned n = 3; n <= 6; ++n) {
    const topo::Hypercube cube(n);
    AuditConfig config;
    config.dimension = n;
    AuditSink audit(config);
    fault::FaultSet none(cube.num_nodes());
    sim::Network net(cube, none);
    net.set_trace(&audit);
    sim::run_gs_synchronous(net);

    for (int phase = 0; phase < 4; ++phase) {
      // Kill a node, stabilize, route, revive it, stabilize, route again.
      NodeId victim;
      do {
        victim = static_cast<NodeId>(rng.below(cube.num_nodes()));
      } while (net.faults().is_faulty(victim));
      sim::stabilize_after_failures(net, {victim});
      for (int p = 0; p < 8; ++p) {
        const auto pair = workload::sample_uniform_pair(net.faults(), rng);
        if (!pair) break;
        (void)sim::route_unicast_sim(net, pair->s, pair->d);
      }
      sim::stabilize_after_recoveries(net, {victim});
      for (int p = 0; p < 8; ++p) {
        const auto pair = workload::sample_uniform_pair(net.faults(), rng);
        if (!pair) break;
        (void)sim::route_unicast_sim(net, pair->s, pair->d);
      }
    }
    sim::run_gs_periodic(net, /*period=*/16, /*periods=*/3);

    audit.finish();
    const AuditReport report = audit.report();
    EXPECT_EQ(report.violations_total, 0u)
        << "dim " << n << ": " << (report.details.empty()
                                       ? std::string("(no detail)")
                                       : report.details.front().detail);
    EXPECT_GT(report.gs_waves, 0u);
    EXPECT_GT(report.routes, 0u);
  }
}

TEST(Audit, EgsLinkRoutingSweepIsCleanDims3To6) {
  // The Section-4.1 producer: route_unicast_egs emits two-view context
  // (egs / self_level / dest_link_faulty) the auditor cross-checks.
  Xoshiro256ss rng(0xE6A0D17);
  for (unsigned n = 3; n <= 6; ++n) {
    const topo::Hypercube cube(n);
    AuditConfig config;
    config.dimension = n;
    AuditSink audit(config);
    core::UnicastOptions uo;
    uo.trace = &audit;
    std::uint64_t routed = 0;
    for (int trial = 0; trial < 20; ++trial) {
      const auto f = fault::inject_uniform(cube, rng.below(n), rng);
      const auto lf = fault::inject_links_uniform(cube, rng.below(n), rng);
      if (f.healthy_count() < 2) continue;
      const auto egs = core::run_egs(cube, f, lf);
      for (int p = 0; p < 16; ++p) {
        const auto pair = workload::sample_uniform_pair(f, rng);
        if (!pair) break;
        (void)core::route_unicast_egs(cube, f, lf, egs, pair->s, pair->d,
                                      uo);
        ++routed;
      }
    }
    audit.finish();
    const AuditReport report = audit.report();
    EXPECT_EQ(report.violations_total, 0u)
        << "dim " << n << ": " << (report.details.empty()
                                       ? std::string("(no detail)")
                                       : report.details.front().detail);
    EXPECT_EQ(report.routes, routed);
  }
}

TEST(Audit, MidRouteFailuresNeverFalsePositive) {
  // Scheduled mid-route deaths produce lost/stuck outcomes; the churn
  // events in the stream must suppress the "stuck is impossible" rule.
  Xoshiro256ss rng(0xDEAD5);
  const topo::Hypercube cube(5);
  AuditConfig config;
  config.dimension = 5;
  AuditSink audit(config);
  for (int trial = 0; trial < 40; ++trial) {
    fault::FaultSet none(cube.num_nodes());
    sim::Network net(cube, none);
    net.set_trace(&audit);
    sim::run_gs_synchronous(net);
    const auto pair = workload::sample_uniform_pair(net.faults(), rng);
    ASSERT_TRUE(pair.has_value());
    const NodeId mid = static_cast<NodeId>(rng.below(cube.num_nodes()));
    std::vector<sim::ScheduledFailure> failures;
    failures.push_back({/*time=*/1 + rng.below(4), /*node=*/mid});
    (void)sim::route_unicast_sim(net, pair->s, pair->d, failures);
  }
  audit.finish();
  const AuditReport report = audit.report();
  EXPECT_EQ(report.violations_total, 0u)
      << (report.details.empty() ? std::string("(no detail)")
                                 : report.details.front().detail);
}

// --- corrupted synthetic traces: each tamper is caught and classified ----

AuditConfig dim3_config() {
  AuditConfig config;
  config.dimension = 3;
  return config;
}

TEST(Audit, DetectsWrongNavBit) {
  AuditSink audit(dim3_config());
  SourceDecisionEvent src;
  src.source = 0;
  src.dest = 0b011;
  src.hamming = 2;
  src.c1 = true;
  src.chosen_dim = 0;
  audit.on_event(src);
  HopEvent hop;
  hop.from = 0;
  hop.to = 0b001;
  hop.dim = 0;
  hop.level = 3;
  hop.nav_before = 0b011;
  hop.nav_after = 0b011;  // tampered: bit 0 not cleared
  audit.on_event(hop);
  audit.finish();
  const AuditReport report = audit.report();
  EXPECT_GE(kind_count(report, ViolationKind::kNavBitNotToggled), 1u);
}

TEST(Audit, DetectsSpareRouteDeliveredInWrongHopCount) {
  // A spare launch must land in exactly H + 2 hops; this forged route
  // reports H + 1 and is flagged as a hop-count violation.
  AuditSink audit(dim3_config());
  SourceDecisionEvent src;
  src.source = 0;
  src.dest = 0b001;  // H = 1
  src.hamming = 1;
  src.c3 = true;
  src.spare = true;
  src.chosen_dim = 1;
  audit.on_event(src);
  HopEvent spare;
  spare.from = 0;
  spare.to = 0b010;
  spare.dim = 1;
  spare.level = 3;
  spare.nav_before = 0b001;
  spare.nav_after = 0b011;  // detour sets bit 1
  spare.preferred = false;
  audit.on_event(spare);
  HopEvent h2;
  h2.from = 0b010;
  h2.to = 0b011;
  h2.dim = 0;
  h2.level = 3;
  h2.nav_before = 0b011;
  h2.nav_after = 0b010;
  audit.on_event(h2);
  audit.on_event(RouteDoneEvent{0, 0b001, "delivered-suboptimal", 2});
  audit.finish();
  const AuditReport report = audit.report();
  EXPECT_GE(kind_count(report, ViolationKind::kHopCountMismatch), 1u);
}

TEST(Audit, AcceptsTheLegalSpareRoute) {
  // The same scenario routed correctly (H + 2 hops, detour repaid) must
  // pass — the detector keys on the tamper, not on spare routes per se.
  AuditSink audit(dim3_config());
  SourceDecisionEvent src;
  src.source = 0;
  src.dest = 0b001;
  src.hamming = 1;
  src.c3 = true;
  src.spare = true;
  src.chosen_dim = 1;
  audit.on_event(src);
  HopEvent spare;
  spare.from = 0;
  spare.to = 0b010;
  spare.dim = 1;
  spare.level = 3;
  spare.nav_before = 0b001;
  spare.nav_after = 0b011;
  spare.preferred = false;
  audit.on_event(spare);
  HopEvent h2;
  h2.from = 0b010;
  h2.to = 0b011;
  h2.dim = 0;
  h2.level = 2;
  h2.nav_before = 0b011;
  h2.nav_after = 0b010;
  audit.on_event(h2);
  HopEvent h3;
  h3.from = 0b011;
  h3.to = 0b001;
  h3.dim = 1;
  h3.level = 1;
  h3.nav_before = 0b010;
  h3.nav_after = 0;
  audit.on_event(h3);
  audit.on_event(RouteDoneEvent{0, 0b001, "delivered-suboptimal", 3});
  audit.finish();
  EXPECT_EQ(audit.report().violations_total, 0u);
}

TEST(Audit, DetectsEgsC1SelfLevelInconsistency) {
  // C1 must equal "self-view level covers the distance" when the
  // destination is not across a dead link; this source lies about it.
  AuditSink audit(dim3_config());
  SourceDecisionEvent src;
  src.source = 0;
  src.dest = 0b011;
  src.hamming = 2;
  src.egs = true;
  src.self_level = 1;  // 1 < H = 2, yet C1 claims optimal feasibility
  src.c1 = true;
  src.chosen_dim = 0;
  audit.on_event(src);
  audit.finish();
  EXPECT_GE(kind_count(audit.report(), ViolationKind::kFlagsInconsistent),
            1u);
}

TEST(Audit, DetectsEgsDeadLinkDestinationWithC1) {
  // Footnote 3: a destination across the source's own faulty link is
  // outside the self-view guarantee, so asserting C1 is a contradiction.
  AuditSink audit(dim3_config());
  SourceDecisionEvent src;
  src.source = 0;
  src.dest = 0b001;
  src.hamming = 1;
  src.egs = true;
  src.self_level = 3;
  src.dest_link_faulty = true;
  src.c1 = true;
  src.chosen_dim = 0;
  audit.on_event(src);
  audit.finish();
  EXPECT_GE(kind_count(audit.report(), ViolationKind::kFlagsInconsistent),
            1u);
}

TEST(Audit, DetectsEgsDeadLinkDeliveryWithoutSpareDetour) {
  // The direct link to the destination is dead: a delivery whose first
  // hop is not the spare detour must have crossed it. This forged route
  // claims an optimal one-hop delivery.
  AuditSink audit(dim3_config());
  SourceDecisionEvent src;
  src.source = 0;
  src.dest = 0b001;
  src.hamming = 1;
  src.egs = true;
  src.self_level = 2;
  src.dest_link_faulty = true;
  src.c2 = true;
  src.chosen_dim = 0;
  audit.on_event(src);
  HopEvent hop;
  hop.from = 0;
  hop.to = 0b001;
  hop.dim = 0;
  hop.level = 2;
  hop.nav_before = 0b001;
  hop.nav_after = 0;
  audit.on_event(hop);
  audit.on_event(RouteDoneEvent{0, 0b001, "delivered-optimal", 1});
  audit.finish();
  EXPECT_GE(kind_count(audit.report(), ViolationKind::kSpareMisuse), 1u);
}

TEST(Audit, AcceptsEgsDeadLinkDeliveryViaSpareDetour) {
  // The same mission routed legally: spare detour out, H + 2 home.
  AuditSink audit(dim3_config());
  SourceDecisionEvent src;
  src.source = 0;
  src.dest = 0b001;
  src.hamming = 1;
  src.egs = true;
  src.self_level = 2;
  src.dest_link_faulty = true;
  src.c3 = true;
  src.spare = true;
  src.chosen_dim = 1;
  audit.on_event(src);
  HopEvent spare;
  spare.from = 0;
  spare.to = 0b010;
  spare.dim = 1;
  spare.level = 3;
  spare.nav_before = 0b001;
  spare.nav_after = 0b011;
  spare.preferred = false;
  audit.on_event(spare);
  HopEvent h2;
  h2.from = 0b010;
  h2.to = 0b011;
  h2.dim = 0;
  h2.level = 2;
  h2.nav_before = 0b011;
  h2.nav_after = 0b010;
  audit.on_event(h2);
  HopEvent h3;
  h3.from = 0b011;
  h3.to = 0b001;
  h3.dim = 1;
  h3.level = 1;
  h3.nav_before = 0b010;
  h3.nav_after = 0;
  audit.on_event(h3);
  audit.on_event(RouteDoneEvent{0, 0b001, "delivered-suboptimal", 3});
  audit.finish();
  EXPECT_EQ(audit.report().violations_total, 0u)
      << audit.report().details.front().detail;
}

TEST(Audit, DetectsOutOfOrderGsRound) {
  AuditSink audit(dim3_config());
  audit.on_event(GsRoundEvent{0, 5, 24, 1});
  audit.on_event(GsRoundEvent{2, 3, 12, 2});  // tampered: round 1 missing
  audit.on_event(GsRoundEvent{3, 0, 0, 3});
  audit.finish();
  const AuditReport report = audit.report();
  EXPECT_GE(kind_count(report, ViolationKind::kGsRoundOrder), 1u);
}

TEST(Audit, DetectsGsBoundExceeded) {
  // n = 3 allows at most n - 1 = 2 changing rounds in a quiet network.
  AuditSink audit(dim3_config());
  for (unsigned r = 0; r < 4; ++r) {
    audit.on_event(GsRoundEvent{r, r < 3 ? 2u : 0u, 8, r});
  }
  audit.finish();
  EXPECT_GE(kind_count(audit.report(), ViolationKind::kGsBoundExceeded), 1u);
}

TEST(Audit, GsBoundRelaxedUnderFaultChurnAndForPeriodicWaves) {
  {
    AuditSink audit(dim3_config());
    audit.on_event(GsRoundEvent{0, 2, 8, 0});
    audit.on_event(NodeFailEvent{1, 5});  // mid-wave churn
    for (unsigned r = 1; r < 4; ++r) {
      audit.on_event(GsRoundEvent{r, r < 3 ? 2u : 0u, 8, r});
    }
    audit.finish();
    EXPECT_EQ(audit.report().violations_total, 0u);
  }
  {
    AuditSink audit(dim3_config());
    for (unsigned r = 0; r < 6; ++r) {
      GsRoundEvent ev{r, r % 2, 4, r};
      ev.periodic = true;
      audit.on_event(ev);
    }
    audit.finish();
    EXPECT_EQ(audit.report().violations_total, 0u);
  }
}

TEST(Audit, DetectsDropWithoutSendAndMatchesRealPairs) {
  AuditSink audit(dim3_config());
  audit.on_event(MessageSendEvent{1, 2, 3, MsgKind::kLevelUpdate});
  audit.on_event(MessageDropEvent{2, 2, 3, MsgKind::kLevelUpdate,
                                  "dead-node"});  // matched
  audit.on_event(MessageDropEvent{3, 2, 3, MsgKind::kUnicast,
                                  "faulty-link"});  // kind mismatch
  audit.finish();
  const AuditReport report = audit.report();
  EXPECT_EQ(kind_count(report, ViolationKind::kDropWithoutSend), 1u);
  EXPECT_EQ(report.sends, 1u);
  EXPECT_EQ(report.drops, 2u);
}

TEST(Audit, DetectsStuckRouteAndTruncatedStream) {
  AuditSink audit(dim3_config());
  SourceDecisionEvent src;
  src.source = 0;
  src.dest = 0b111;
  src.hamming = 3;
  src.c1 = true;
  src.chosen_dim = 0;
  audit.on_event(src);
  audit.on_event(RouteDoneEvent{0, 0b111, "stuck", 0});
  // Second route never closes.
  src.dest = 0b101;
  src.hamming = 2;
  audit.on_event(src);
  audit.finish();
  const AuditReport report = audit.report();
  EXPECT_EQ(kind_count(report, ViolationKind::kStuckRoute), 1u);
  EXPECT_EQ(kind_count(report, ViolationKind::kTruncatedRoute), 1u);
}

TEST(Audit, DetectsRefusalWithFlagsSetInCoreDialect) {
  AuditSink audit(dim3_config());
  SourceDecisionEvent src;
  src.source = 0;
  src.dest = 0b001;
  src.hamming = 1;
  src.c2 = true;  // tampered: core refuses only when no condition holds
  audit.on_event(src);
  audit.on_event(RouteDoneEvent{0, 0b001, "source-refused", 0});
  audit.finish();
  EXPECT_GE(kind_count(audit.report(), ViolationKind::kFlagsInconsistent),
            1u);
}

TEST(Audit, DetectsHopLevelBelowTheoremTwoFloor) {
  AuditSink audit(dim3_config());
  SourceDecisionEvent src;
  src.source = 0;
  src.dest = 0b011;
  src.hamming = 2;
  src.c1 = true;
  src.chosen_dim = 0;
  audit.on_event(src);
  HopEvent h1;
  h1.from = 0;
  h1.to = 0b001;
  h1.dim = 0;
  h1.level = 0;  // tampered: must cover the 1 remaining nav bit
  h1.nav_before = 0b011;
  h1.nav_after = 0b010;
  audit.on_event(h1);
  HopEvent h2;
  h2.from = 0b001;
  h2.to = 0b011;
  h2.dim = 1;
  h2.level = 1;
  h2.nav_before = 0b010;
  h2.nav_after = 0;
  audit.on_event(h2);
  audit.on_event(RouteDoneEvent{0, 0b011, "delivered-optimal", 2});
  audit.finish();
  EXPECT_EQ(kind_count(audit.report(), ViolationKind::kHopLevelTooLow), 1u);
}

// --- offline: JSONL round trip through audit_jsonl_file ------------------

TEST(Audit, JsonlFileAuditRoundTrip) {
  const std::string path = ::testing::TempDir() + "slcube_audit_rt.jsonl";
  {
    // A real traced route, serialized exactly as producers write it.
    const topo::Hypercube q(4);
    const fault::FaultSet none(q.num_nodes());
    const auto lv = core::compute_safety_levels(q, none);
    JsonlSink sink(path);
    core::UnicastOptions uo;
    uo.trace = &sink;
    const auto r = core::route_unicast(q, none, lv, 0b1110, 0b0001, uo);
    ASSERT_EQ(r.status, core::RouteStatus::kDeliveredOptimal);
  }
  std::size_t malformed = 0, unknown = 0;
  AuditConfig config;
  config.dimension = 4;
  const AuditReport report =
      audit_jsonl_file(path, config, &malformed, &unknown);
  EXPECT_EQ(malformed, 0u);
  EXPECT_EQ(unknown, 0u);
  EXPECT_EQ(report.routes, 1u);
  EXPECT_EQ(report.hops, 4u);
  EXPECT_EQ(report.violations_total, 0u);
  std::remove(path.c_str());
}

TEST(Audit, JsonlFileAuditCountsMalformedAndUnknownLines) {
  const std::string path = ::testing::TempDir() + "slcube_audit_bad.jsonl";
  {
    std::ofstream os(path);
    os << "{\"event\":\"node_fail\",\"time\":1,\"node\":2}\n";
    os << "this is not json\n";
    os << "{\"event\":\"martian\",\"x\":1}\n";
  }
  std::size_t malformed = 0, unknown = 0;
  const AuditReport report =
      audit_jsonl_file(path, AuditConfig{}, &malformed, &unknown);
  EXPECT_EQ(malformed, 1u);
  EXPECT_EQ(unknown, 1u);
  EXPECT_EQ(report.events, 1u);
  std::remove(path.c_str());
}

TEST(Audit, ToTraceEventReconstructsEveryKindAndRejectsUnknown) {
  // Serialize one of each alternative, parse it back, re-serialize, and
  // require byte-identical JSON — proves to_trace_event inverts
  // write_json over the full schema.
  std::vector<TraceEvent> originals;
  SourceDecisionEvent src;
  src.source = 3;
  src.dest = 9;
  src.hamming = 2;
  src.c2 = true;
  src.c3 = true;
  src.chosen_dim = 1;
  src.ties = 2;
  src.spare = true;
  src.egs = true;
  src.self_level = 3;
  src.dest_link_faulty = true;
  originals.emplace_back(src);
  HopEvent hop;
  hop.from = 3;
  hop.to = 1;
  hop.dim = 1;
  hop.level = 4;
  hop.nav_before = 10;
  hop.nav_after = 8;
  hop.preferred = false;
  hop.ties = 1;
  originals.emplace_back(hop);
  originals.emplace_back(RouteDoneEvent{3, 9, "delivered-suboptimal", 4});
  GsRoundEvent round{2, 7, 31, 99, true};
  round.periodic = true;
  originals.emplace_back(round);
  originals.emplace_back(MessageSendEvent{5, 1, 2, MsgKind::kUnicast});
  originals.emplace_back(
      MessageDropEvent{6, 1, 2, MsgKind::kLevelUpdate, "faulty \"link\""});
  originals.emplace_back(NodeFailEvent{7, 4});
  originals.emplace_back(NodeRecoverEvent{8, 4});
  MisrouteEvent mis;
  mis.source = 3;
  mis.dest = 9;
  mis.cls = "optimism-drop";
  mis.drop_node = 5;
  mis.hops_taken = 1;
  mis.ground_feasible = true;
  originals.emplace_back(mis);
  SweepPointEvent sp;
  sp.sweep = "routing";
  sp.fault_count = 6;
  sp.wall_ms = 1.25;
  sp.utilization = 0.5;
  sp.threads = 4;
  sp.trial_p50_us = 1;
  sp.trial_p90_us = 2;
  sp.trial_p99_us = 3;
  sp.values = {{"delivered_pct", 99.5}, {"optimal_pct", 90.25}};
  originals.emplace_back(sp);
  // Nested keys read back in written order, not sorted.
  sp.values = {{"zeta", 12.5}, {"alpha", 1}, {"mid", 0.125}};
  originals.emplace_back(sp);
  EpochPublishEvent epoch;
  epoch.epoch = 12;
  epoch.parent = 11;
  epoch.cause = "link-fail";
  epoch.node = 37;
  epoch.dim = 3;
  epoch.churn = 2;
  epoch.faults = 5;
  epoch.links = 4;
  epoch.ts = 901;
  originals.emplace_back(epoch);
  RouteSummaryEvent summary;
  summary.route_id = 77;
  summary.decision_epoch = 11;
  summary.ground_epoch = 12;
  summary.status = "dropped-link";
  summary.hops = 2;
  summary.latency_us = 3.5;
  summary.promoted = true;
  summary.reason = "stale";
  originals.emplace_back(summary);

  // A 13th event kind added without a sample here fails this check.
  std::vector<bool> covered(std::variant_size_v<TraceEvent>, false);
  for (const TraceEvent& ev : originals) covered[ev.index()] = true;
  for (std::size_t i = 0; i < covered.size(); ++i) {
    EXPECT_TRUE(covered[i]) << "no round-trip sample for TraceEvent index "
                            << i;
  }

  for (const TraceEvent& ev : originals) {
    std::ostringstream first;
    write_json(first, ev);
    const auto parsed = parse_jsonl_line(first.str());
    ASSERT_TRUE(parsed.has_value()) << first.str();
    TraceEvent rebuilt;
    ASSERT_TRUE(to_trace_event(*parsed, rebuilt)) << first.str();
    EXPECT_EQ(rebuilt.index(), ev.index());
    std::ostringstream second;
    write_json(second, rebuilt);
    EXPECT_EQ(second.str(), first.str());
  }

  ParsedEvent unknown;
  unknown.fields.emplace_back("event", std::string("martian"));
  TraceEvent out;
  EXPECT_FALSE(to_trace_event(unknown, out));
}

TEST(Audit, ToTraceEventLeavesDefaultsForAbsentKeys) {
  // The writer never omits a key; a hand-written line that does reads
  // back the member's declared default, not zero.
  TraceEvent out;
  const auto hop =
      parse_jsonl_line(R"({"event":"hop","from":1,"to":3,"dim":1})");
  ASSERT_TRUE(hop.has_value());
  ASSERT_TRUE(to_trace_event(*hop, out));
  EXPECT_TRUE(std::get<HopEvent>(out).preferred);
  EXPECT_EQ(std::get<HopEvent>(out).to, 3u);

  const auto src = parse_jsonl_line(
      R"({"event":"source_decision","source":1,"dest":6,"h":3,"c1":true})");
  ASSERT_TRUE(src.has_value());
  ASSERT_TRUE(to_trace_event(*src, out));
  EXPECT_EQ(std::get<SourceDecisionEvent>(out).chosen_dim, -1);
  EXPECT_TRUE(std::get<SourceDecisionEvent>(out).c1);

  const auto epoch =
      parse_jsonl_line(R"({"event":"epoch_publish","epoch":4})");
  ASSERT_TRUE(epoch.has_value());
  ASSERT_TRUE(to_trace_event(*epoch, out));
  EXPECT_EQ(std::get<EpochPublishEvent>(out).node, -1);
  EXPECT_EQ(std::get<EpochPublishEvent>(out).dim, -1);

  const auto summary =
      parse_jsonl_line(R"({"event":"route_summary","route_id":9})");
  ASSERT_TRUE(summary.has_value());
  ASSERT_TRUE(to_trace_event(*summary, out));
  EXPECT_DOUBLE_EQ(std::get<RouteSummaryEvent>(out).latency_us, -1.0);
}

// --- report plumbing -----------------------------------------------------

TEST(Audit, ReportRendersTextAndParseableJson) {
  AuditSink audit(dim3_config());
  SourceDecisionEvent src;
  src.source = 0;
  src.dest = 0b001;
  src.hamming = 1;
  src.c1 = true;
  src.chosen_dim = 0;
  audit.on_event(src);
  HopEvent hop;
  hop.from = 0;
  hop.to = 1;
  hop.dim = 0;
  hop.level = 3;
  hop.nav_before = 1;
  hop.nav_after = 0;
  audit.on_event(hop);
  audit.on_event(RouteDoneEvent{0, 1, "delivered-optimal", 1});
  audit.finish();
  const AuditReport report = audit.report();

  std::ostringstream text;
  report.render_text(text);
  EXPECT_NE(text.str().find("AUDIT SUMMARY"), std::string::npos);
  EXPECT_NE(text.str().find("delivered-optimal"), std::string::npos);

  std::ostringstream js;
  report.write_json(js);
  const auto parsed = parse_jsonl_line(js.str());
  ASSERT_TRUE(parsed.has_value()) << js.str();
  EXPECT_EQ(parsed->kind(), "audit_report");
  EXPECT_EQ(parsed->integer("routes"), 1);
  EXPECT_EQ(parsed->integer("hops"), 1);
  EXPECT_EQ(parsed->integer("violations_total"), 0);
  EXPECT_EQ(parsed->integer("status.delivered-optimal"), 1);
}

TEST(Audit, ReportMergeSumsCounters) {
  AuditReport a, b;
  a.events = 3;
  a.routes = 1;
  a.violations_total = 1;
  a.violations_by_kind[0] = 1;
  a.gs_curve[0] = {4, 1};
  b.events = 5;
  b.routes = 2;
  b.gs_curve[0] = {2, 1};
  b.gs_curve[1] = {1, 1};
  a.merge(b);
  EXPECT_EQ(a.events, 8u);
  EXPECT_EQ(a.routes, 3u);
  EXPECT_EQ(a.violations_total, 1u);
  EXPECT_EQ(a.gs_curve[0].first, 6u);
  EXPECT_EQ(a.gs_curve[0].second, 2u);
  EXPECT_EQ(a.gs_curve[1].second, 1u);
}

// --- concurrency: one sink, many producer threads ------------------------

TEST(Audit, ConcurrentProducersKeepLanesSeparate) {
  AuditSink audit(dim3_config());
  constexpr unsigned kThreads = 4, kRoutesPerThread = 200;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&audit] {
      for (unsigned i = 0; i < kRoutesPerThread; ++i) {
        SourceDecisionEvent src;
        src.source = 0;
        src.dest = 0b001;
        src.hamming = 1;
        src.c1 = true;
        src.chosen_dim = 0;
        audit.on_event(src);
        HopEvent hop;
        hop.from = 0;
        hop.to = 1;
        hop.dim = 0;
        hop.level = 3;
        hop.nav_before = 1;
        hop.nav_after = 0;
        audit.on_event(hop);
        audit.on_event(RouteDoneEvent{0, 1, "delivered-optimal", 1});
      }
    });
  }
  for (auto& w : workers) w.join();
  audit.finish();
  const AuditReport report = audit.report();
  EXPECT_EQ(report.routes, kThreads * kRoutesPerThread);
  EXPECT_EQ(report.violations_total, 0u)
      << (report.details.empty() ? std::string("(no detail)")
                                 : report.details.front().detail);
}

// --- sampled-stream reconciliation ----------------------------------------

namespace {

/// One clean delivered route (chain + promoted summary) into `audit`.
void emit_promoted_route(AuditSink& audit, std::uint64_t route_id,
                         const char* reason) {
  SourceDecisionEvent src;
  src.source = 0;
  src.dest = 0b001;
  src.hamming = 1;
  src.c1 = true;
  src.chosen_dim = 0;
  audit.on_event(src);
  HopEvent hop;
  hop.from = 0;
  hop.to = 1;
  hop.dim = 0;
  hop.level = 3;
  hop.nav_before = 1;
  hop.nav_after = 0;
  audit.on_event(hop);
  audit.on_event(RouteDoneEvent{0, 1, "delivered-optimal", 1});
  audit.on_event(RouteSummaryEvent{route_id, /*decision_epoch=*/4,
                                   /*ground_epoch=*/4, "delivered-optimal",
                                   /*hops=*/1, /*latency_us=*/-1.0,
                                   /*promoted=*/true, reason});
}

}  // namespace

TEST(Audit, ReconcileSamplingAcceptsAConsistentSampledStream) {
  AuditSink audit(dim3_config());
  emit_promoted_route(audit, 12, "head");
  emit_promoted_route(audit, 40, "drop");
  // One breadcrumb-only summary (emit_breadcrumb_summaries mode): no
  // chain precedes it, and that must NOT read as a truncated route.
  audit.on_event(RouteSummaryEvent{13, 4, 4, "delivered-optimal", 1, -1.0,
                                   /*promoted=*/false, "none"});
  audit.finish();
  audit.reconcile_sampling(/*promoted=*/2, /*breadcrumb_only=*/1,
                           /*shed_events=*/5);
  const AuditReport report = audit.report();
  EXPECT_TRUE(report.clean())
      << (report.details.empty() ? std::string("(no detail)")
                                 : report.details.front().detail);
  EXPECT_EQ(report.routes, 2u);
  EXPECT_EQ(report.promoted_routes, 2u);
  EXPECT_EQ(report.breadcrumb_routes, 1u);
  EXPECT_EQ(report.events_lost, 5u);  // budget sheds, explained
  EXPECT_EQ(report.promoted_by_reason.at("head"), 1u);
  EXPECT_EQ(report.promoted_by_reason.at("drop"), 1u);
}

TEST(Audit, ReconcileSamplingTakesTheSamplerCountWhenNoSummariesFlowed) {
  // The default (<5%-overhead) configuration emits no breadcrumb
  // summaries: the remainder reaches the report only via the sampler's
  // counter, never as violations.
  AuditSink audit(dim3_config());
  emit_promoted_route(audit, 8, "detour");
  audit.finish();
  audit.reconcile_sampling(/*promoted=*/1, /*breadcrumb_only=*/1234);
  const AuditReport report = audit.report();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.breadcrumb_routes, 1234u);
}

TEST(Audit, ReconcileSamplingFlagsCounterDrift) {
  AuditSink audit(dim3_config());
  emit_promoted_route(audit, 3, "stale");
  audit.finish();
  // The sampler claims two promotions; the stream only carries one full
  // chain + summary. Both promoted-count checks must fire.
  audit.reconcile_sampling(/*promoted=*/2, /*breadcrumb_only=*/0);
  const AuditReport report = audit.report();
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.violations_by_kind[static_cast<std::size_t>(
                ViolationKind::kSummaryMismatch)],
            2u);
}

TEST(Audit, PromotedSummaryWithoutChainIsAMismatch) {
  AuditSink audit(dim3_config());
  audit.on_event(RouteSummaryEvent{99, 4, 4, "delivered-optimal", 1, -1.0,
                                   /*promoted=*/true, "head"});
  audit.finish();
  const AuditReport report = audit.report();
  EXPECT_GE(report.violations_by_kind[static_cast<std::size_t>(
                ViolationKind::kSummaryMismatch)],
            1u);
}

TEST(Audit, SummaryContradictingItsChainIsAMismatch) {
  AuditSink audit(dim3_config());
  SourceDecisionEvent src;
  src.source = 0;
  src.dest = 0b001;
  src.hamming = 1;
  src.c1 = true;
  src.chosen_dim = 0;
  audit.on_event(src);
  HopEvent hop;
  hop.from = 0;
  hop.to = 1;
  hop.dim = 0;
  hop.level = 3;
  hop.nav_before = 1;
  hop.nav_after = 0;
  audit.on_event(hop);
  audit.on_event(RouteDoneEvent{0, 1, "delivered-optimal", 1});
  // Summary lies about the hop count.
  audit.on_event(RouteSummaryEvent{5, 4, 4, "delivered-optimal", /*hops=*/3,
                                   -1.0, /*promoted=*/true, "head"});
  audit.finish();
  const AuditReport report = audit.report();
  EXPECT_GE(report.violations_by_kind[static_cast<std::size_t>(
                ViolationKind::kSummaryMismatch)],
            1u);
}

TEST(Audit, RingEvictionsFoldIntoEventsLost) {
  // audit_ring must report the flight recorder's clipping as explained
  // loss (events_lost), sourced from RingBufferSink::dropped().
  RingBufferSink ring(/*capacity=*/2);
  for (std::uint32_t i = 0; i < 6; ++i) {
    ring.on_event(NodeFailEvent{i, i});
  }
  const AuditReport report = audit_ring(ring, dim3_config());
  EXPECT_EQ(report.events_lost, 4u);
  EXPECT_EQ(report.events, 2u);
}

}  // namespace
}  // namespace slcube::obs
