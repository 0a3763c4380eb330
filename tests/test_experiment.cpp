#include "workload/experiment.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "baselines/ecube.hpp"
#include "baselines/safety_level_router.hpp"
#include "obs/audit.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace slcube::workload {
namespace {

RouterFactory two_router_factory() {
  return [](std::uint64_t) {
    std::vector<std::unique_ptr<routing::Router>> v;
    v.push_back(std::make_unique<baselines::SafetyLevelRouter>());
    v.push_back(std::make_unique<baselines::EcubeRouter>());
    return v;
  };
}

TEST(RoutingSweep, ProducesOnePointPerFaultCount) {
  SweepConfig cfg;
  cfg.dimension = 5;
  cfg.fault_counts = {0, 2, 4};
  cfg.trials = 8;
  cfg.pairs = 8;
  const auto points = run_routing_sweep(cfg, two_router_factory());
  ASSERT_EQ(points.size(), 3u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].fault_count, cfg.fault_counts[i]);
    ASSERT_EQ(points[i].per_router.size(), 2u);
    EXPECT_EQ(points[i].per_router[0].first, "safety-level");
    EXPECT_EQ(points[i].per_router[1].first, "e-cube");
  }
}

TEST(RoutingSweep, FaultFreeEveryoneDeliversOptimally) {
  SweepConfig cfg;
  cfg.dimension = 5;
  cfg.fault_counts = {0};
  cfg.trials = 4;
  cfg.pairs = 16;
  const auto points = run_routing_sweep(cfg, two_router_factory());
  for (const auto& [name, metrics] : points[0].per_router) {
    EXPECT_DOUBLE_EQ(metrics.delivered.value(), 1.0) << name;
    EXPECT_DOUBLE_EQ(metrics.optimal.value(), 1.0) << name;
  }
  EXPECT_DOUBLE_EQ(points[0].disconnected.value(), 0.0);
}

TEST(RoutingSweep, SafetyLevelBeatsEcubeUnderFaults) {
  SweepConfig cfg;
  cfg.dimension = 6;
  cfg.fault_counts = {5};
  cfg.trials = 20;
  cfg.pairs = 16;
  const auto points = run_routing_sweep(cfg, two_router_factory());
  const auto& sl = points[0].per_router[0].second;
  const auto& ec = points[0].per_router[1].second;
  EXPECT_DOUBLE_EQ(sl.delivered.value(), 1.0)
      << "fewer than n faults: never fails";
  EXPECT_LT(ec.delivered.value(), 1.0) << "e-cube must lose messages";
}

TEST(RoutingSweep, DeterministicForSeed) {
  SweepConfig cfg;
  cfg.dimension = 5;
  cfg.fault_counts = {3};
  cfg.trials = 6;
  cfg.pairs = 8;
  cfg.seed = 777;
  const auto a = run_routing_sweep(cfg, two_router_factory());
  const auto b = run_routing_sweep(cfg, two_router_factory());
  EXPECT_EQ(a[0].per_router[0].second.delivered.hits(),
            b[0].per_router[0].second.delivered.hits());
  EXPECT_EQ(a[0].per_router[1].second.optimal.hits(),
            b[0].per_router[1].second.optimal.hits());
}

TEST(RoutingSweep, IsolationInjectionDisconnects) {
  SweepConfig cfg;
  cfg.dimension = 5;
  cfg.fault_counts = {5};
  cfg.trials = 6;
  cfg.pairs = 4;
  cfg.injection = InjectionKind::kIsolation;
  const auto points = run_routing_sweep(cfg, two_router_factory());
  EXPECT_DOUBLE_EQ(points[0].disconnected.value(), 1.0);
}

TEST(RoundsSweep, FaultFreePointIsZeroRounds) {
  const auto points = run_rounds_sweep(5, {0}, 5, 1);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_DOUBLE_EQ(points[0].gs_rounds.mean(), 0.0);
  EXPECT_DOUBLE_EQ(points[0].safe_level_n.mean(), 32.0);
}

TEST(RoundsSweep, MoreFaultsFewerSafeNodes) {
  const auto points = run_rounds_sweep(6, {1, 16}, 10, 2);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_GT(points[0].safe_level_n.mean(), points[1].safe_level_n.mean());
}

TEST(RoundsSweep, ContainmentVisibleInAverages) {
  const auto points = run_rounds_sweep(6, {6}, 10, 3);
  EXPECT_LE(points[0].safe_lh.mean(), points[0].safe_wf.mean() + 1e-9);
  EXPECT_LE(points[0].safe_wf.mean(), points[0].safe_level_n.mean() + 1e-9);
}

TEST(RoundsSweep, GsRoundsWithinCorollaryBound) {
  const auto points = run_rounds_sweep(7, {3, 10, 30}, 10, 4);
  for (const auto& p : points) {
    EXPECT_LE(p.gs_rounds.max(), 6.0);
  }
}

TEST(RoutingSweep, TimingProfilePopulated) {
  SweepConfig cfg;
  cfg.dimension = 5;
  cfg.fault_counts = {3};
  cfg.trials = 8;
  cfg.pairs = 8;
  const auto points = run_routing_sweep(cfg, two_router_factory());
  const exp::EngineTiming& t = points[0].timing;
  EXPECT_GT(t.wall_ms, 0.0);
  EXPECT_GT(t.utilization, 0.0);
  EXPECT_LE(t.utilization, 1.05);  // headroom for clock granularity
  EXPECT_EQ(t.trial_latency_us.count, cfg.trials);
  EXPECT_GT(t.trial_latency_us.quantile(0.5), 0.0);
  EXPECT_LE(t.trial_latency_us.quantile(0.5),
            t.trial_latency_us.quantile(0.99));
}

TEST(RoutingSweep, EmitsOneSweepPointEventPerPoint) {
  obs::RingBufferSink ring;
  SweepConfig cfg;
  cfg.dimension = 5;
  cfg.fault_counts = {0, 3};
  cfg.trials = 4;
  cfg.pairs = 4;
  cfg.trace = &ring;
  const auto points = run_routing_sweep(cfg, two_router_factory());
  ASSERT_EQ(points.size(), 2u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 2u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& ev = std::get<obs::SweepPointEvent>(events[i]);
    EXPECT_STREQ(ev.sweep, "routing");
    EXPECT_EQ(ev.fault_count, cfg.fault_counts[i]);
    EXPECT_GT(ev.wall_ms, 0.0);
    // Per-router metrics flattened as "<router>.<metric>".
    bool found = false;
    for (const auto& [key, value] : ev.values) {
      if (key == "safety-level.delivered_pct") {
        found = true;
        EXPECT_GT(value, 0.0);
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(RoundsSweep, EmitsSweepPointEventsAndTiming) {
  obs::RingBufferSink ring;
  const auto points = run_rounds_sweep(5, {0, 2}, 4, 9, &ring);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_GT(points[0].timing.wall_ms, 0.0);
  EXPECT_EQ(points[0].timing.trial_latency_us.count, 4u);
  EXPECT_GT(points[0].timing.utilization, 0.0);
  EXPECT_LE(points[0].timing.utilization, 1.0);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 2u);
  const auto& ev = std::get<obs::SweepPointEvent>(events[1]);
  EXPECT_STREQ(ev.sweep, "rounds");
  EXPECT_EQ(ev.fault_count, 2u);
  EXPECT_GT(ev.threads, 0u);
  bool found = false;
  for (const auto& [key, value] : ev.values) {
    if (key == "gs_rounds_mean") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(LinkRoutingSweep, ProducesOnePointPerMixAndValidPaths) {
  LinkSweepConfig cfg;
  cfg.dimension = 5;
  cfg.points = {{0, 2}, {2, 2}, {3, 0}};
  cfg.trials = 8;
  cfg.pairs = 8;
  const auto points = run_link_routing_sweep(cfg);
  ASSERT_EQ(points.size(), 3u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].node_faults, cfg.points[i].first);
    EXPECT_EQ(points[i].link_faults, cfg.points[i].second);
    EXPECT_GT(points[i].delivered.total(), 0u);
    EXPECT_GT(points[i].delivered.value(), 0.0);
    // Every delivered route must re-verify as a valid fault-free path.
    if (points[i].valid_paths.total() > 0) {
      EXPECT_DOUBLE_EQ(points[i].valid_paths.value(), 1.0);
    }
    EXPECT_EQ(points[i].timing.trial_latency_us.count, cfg.trials);
  }
  // Link faults put both endpoints in N2.
  EXPECT_GT(points[0].n2_nodes.mean(), 0.0);
}

TEST(LinkRoutingSweep, ThreadInvariantAcrossWorkerCounts) {
  LinkSweepConfig cfg;
  cfg.dimension = 6;
  cfg.points = {{2, 3}, {4, 4}};
  cfg.trials = 12;
  cfg.pairs = 8;
  cfg.seed = 4242;
  cfg.threads = 1;
  const auto serial = run_link_routing_sweep(cfg);
  cfg.threads = 4;
  const auto parallel = run_link_routing_sweep(cfg);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].delivered.hits(), parallel[i].delivered.hits());
    EXPECT_EQ(serial[i].delivered.total(), parallel[i].delivered.total());
    EXPECT_EQ(serial[i].optimal.hits(), parallel[i].optimal.hits());
    EXPECT_EQ(serial[i].refused.hits(), parallel[i].refused.hits());
    EXPECT_EQ(serial[i].stuck.hits(), parallel[i].stuck.hits());
    EXPECT_EQ(serial[i].valid_paths.hits(), parallel[i].valid_paths.hits());
    EXPECT_DOUBLE_EQ(serial[i].n2_nodes.mean(), parallel[i].n2_nodes.mean());
  }
}

TEST(LinkRoutingSweep, AuditCleanWithRouteTrace) {
  LinkSweepConfig cfg;
  cfg.dimension = 5;
  cfg.points = {{2, 2}, {3, 4}};
  cfg.trials = 10;
  cfg.pairs = 8;
  obs::AuditSink audit{obs::AuditConfig{cfg.dimension}};
  cfg.route_trace = &audit;  // AuditSink synchronizes internally
  const auto points = run_link_routing_sweep(cfg);
  ASSERT_EQ(points.size(), 2u);
  audit.finish();
  const auto report = audit.report();
  EXPECT_GT(report.routes, 0u);
  EXPECT_TRUE(report.clean()) << [&report] {
    std::ostringstream os;
    report.render_text(os);
    return os.str();
  }();
}

TEST(LinkRoutingSweep, EmitsSweepPointEventsWithLinkValues) {
  obs::RingBufferSink ring;
  LinkSweepConfig cfg;
  cfg.dimension = 5;
  cfg.points = {{1, 2}, {2, 1}};
  cfg.trials = 4;
  cfg.pairs = 4;
  cfg.trace = &ring;
  const auto points = run_link_routing_sweep(cfg);
  ASSERT_EQ(points.size(), 2u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 2u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& ev = std::get<obs::SweepPointEvent>(events[i]);
    EXPECT_STREQ(ev.sweep, "links");
    EXPECT_EQ(ev.fault_count, cfg.points[i].first);
    bool link_faults = false;
    bool delivered = false;
    for (const auto& [key, value] : ev.values) {
      if (key == "link_faults") {
        link_faults = true;
        EXPECT_DOUBLE_EQ(value, double(cfg.points[i].second));
      }
      if (key == "delivered_pct") delivered = true;
    }
    EXPECT_TRUE(link_faults);
    EXPECT_TRUE(delivered);
  }
}

TEST(RoutingSweep, TracingDoesNotChangeResults) {
  SweepConfig cfg;
  cfg.dimension = 5;
  cfg.fault_counts = {4};
  cfg.trials = 6;
  cfg.pairs = 8;
  cfg.seed = 99;
  const auto plain = run_routing_sweep(cfg, two_router_factory());
  obs::RingBufferSink ring;
  cfg.trace = &ring;
  const auto traced = run_routing_sweep(cfg, two_router_factory());
  EXPECT_EQ(plain[0].per_router[0].second.delivered.hits(),
            traced[0].per_router[0].second.delivered.hits());
  EXPECT_EQ(plain[0].per_router[1].second.optimal.hits(),
            traced[0].per_router[1].second.optimal.hits());
}

TEST(RoutingSweep, InstrumentationRecordsWithoutChangingResults) {
  SweepConfig cfg;
  cfg.dimension = 5;
  cfg.fault_counts = {0, 3};
  cfg.trials = 6;
  cfg.pairs = 8;
  cfg.seed = 77;
  cfg.threads = 2;
  const auto plain = run_routing_sweep(cfg, two_router_factory());

  obs::Registry reg;
  obs::Profiler prof;
  obs::TimeSeriesRecorder rec(reg);
  cfg.instrumentation = {&reg, &prof, &rec};
  const auto instrumented = run_routing_sweep(cfg, two_router_factory());

  // Telemetry is free: identical aggregates.
  ASSERT_EQ(instrumented.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].per_router[0].second.delivered.hits(),
              instrumented[i].per_router[0].second.delivered.hits());
    EXPECT_EQ(plain[i].per_router[0].second.optimal.hits(),
              instrumented[i].per_router[0].second.optimal.hits());
  }

  // One sample per sweep point, workload counters in the shared registry,
  // and stage attribution from the workers.
  EXPECT_EQ(rec.total_ticks(), cfg.fault_counts.size());
  const auto snap = reg.scrape();
  EXPECT_EQ(snap.counter("exp.trials_run"),
            cfg.fault_counts.size() * cfg.trials);
  EXPECT_GT(snap.counter("route.requests"), 0u);
  const obs::StageReport stages = prof.report();
  ASSERT_FALSE(stages.empty());
  EXPECT_EQ(stages.roots[0].name, "trial");
}

}  // namespace
}  // namespace slcube::workload
