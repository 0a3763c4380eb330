// slcube::obs telemetry — the time-series recorder (explicit ticks, ring
// bound, concurrent writers), the JSONL exporters, the stage profiler
// (tree shape, self/total attribution, cross-thread merge, guard
// nesting), and the dashboard renderer.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/sweep_engine.hpp"
#include "obs/dashboard.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"

namespace slcube::obs {
namespace {

std::vector<ParsedEvent> parse_lines(const std::string& text) {
  std::istringstream is(text);
  std::vector<ParsedEvent> out;
  for (std::string line; std::getline(is, line);) {
    auto parsed = parse_jsonl_line(line);
    EXPECT_TRUE(parsed.has_value()) << line;
    if (parsed) out.push_back(std::move(*parsed));
  }
  return out;
}

// --- recorder --------------------------------------------------------------

TEST(Telemetry, ExplicitTicksRecordOrderedSamples) {
  Registry reg;
  const Counter c = reg.counter("t.count");
  TimeSeriesRecorder rec(reg);
  c.inc(2);
  rec.tick();
  c.inc(3);
  rec.tick();
  EXPECT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.total_ticks(), 2u);
  const auto samples = rec.samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].tick, 0u);
  EXPECT_EQ(samples[1].tick, 1u);
  EXPECT_EQ(samples[0].snapshot.counter("t.count"), 2u);
  EXPECT_EQ(samples[1].snapshot.counter("t.count"), 5u);
}

TEST(Telemetry, RingDropsOldestPastCapacity) {
  Registry reg;
  TimeSeriesRecorder rec(reg, /*capacity=*/4);
  for (int i = 0; i < 10; ++i) rec.tick();
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.total_ticks(), 10u);
  const auto samples = rec.samples();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples.front().tick, 6u);  // oldest surviving
  EXPECT_EQ(samples.back().tick, 9u);
}

TEST(Telemetry, RecorderSurvivesConcurrentWritersAndTicks) {
  Registry reg;
  const Counter c = reg.counter("mt.count");
  const Histogram h = reg.histogram("mt.hist", exponential_bounds(1, 2, 8));
  TimeSeriesRecorder rec(reg);
  constexpr unsigned kThreads = 4, kPerThread = 2000;
  std::vector<std::thread> writers;
  for (unsigned t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (unsigned i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(2.0);
      }
    });
  }
  for (int i = 0; i < 50; ++i) rec.tick();
  for (auto& w : writers) w.join();
  rec.tick();  // final sample sees every write
  const auto samples = rec.samples();
  ASSERT_FALSE(samples.empty());
  EXPECT_EQ(samples.back().snapshot.counter("mt.count"),
            kThreads * kPerThread);
  // Monotone counter across samples: ticks are totally ordered.
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].snapshot.counter("mt.count"),
              samples[i - 1].snapshot.counter("mt.count"));
  }
}

TEST(Telemetry, HooksAreNullSafe) {
  const InstrumentationHooks none;
  EXPECT_FALSE(none.enabled());
  none.tick();  // must be a no-op, not a crash
  Registry reg;
  InstrumentationHooks some;
  some.registry = &reg;
  EXPECT_TRUE(some.enabled());
}

// --- exporters -------------------------------------------------------------

TEST(Telemetry, TimeseriesJsonlDeltasAndIntervalStats) {
  Registry reg;
  const Counter c = reg.counter("x.count");
  const Histogram h = reg.histogram("lat", exponential_bounds(1, 2, 10));
  TimeSeriesRecorder rec(reg);
  c.inc(10);
  h.observe(3.0);
  rec.tick();
  c.inc(5);
  h.observe(3.0);
  h.observe(3.0);
  rec.tick();
  std::ostringstream os;
  write_timeseries_jsonl(os, rec.samples());
  const auto events = parse_lines(os.str());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind(), "ts_sample");
  EXPECT_FALSE(events[0].has("t_ms"));  // no wall clock in the record
  EXPECT_EQ(events[0].integer("c.x.count"), 10);
  EXPECT_EQ(events[0].integer("d.x.count"), 10);  // first delta = absolute
  EXPECT_EQ(events[1].integer("c.x.count"), 15);
  EXPECT_EQ(events[1].integer("d.x.count"), 5);
  EXPECT_EQ(events[0].integer("h.lat.count"), 1);
  EXPECT_EQ(events[1].integer("h.lat.count"), 3);
  EXPECT_EQ(events[1].integer("h.lat.d_count"), 2);  // interval count
  EXPECT_TRUE(events[1].has("h.lat.p50"));
  EXPECT_TRUE(events[1].has("h.lat.p999"));
  EXPECT_DOUBLE_EQ(events[1].num("h.lat.max"), 3.0);
}

TEST(Telemetry, ByteIdenticalAcrossEngineThreadCounts) {
  // The acceptance property: an explicit-tick recording of the same
  // engine-driven run serializes to the same bytes at any worker count.
  const auto record = [](unsigned threads) {
    Registry reg;
    TimeSeriesRecorder rec(reg);
    exp::EngineOptions eo;
    eo.threads = threads;
    eo.seed = 42;
    eo.registry = &reg;
    exp::SweepEngine engine(eo);
    const Counter work = reg.counter("work.done");
    rec.tick();
    for (int batch = 0; batch < 3; ++batch) {
      (void)engine.map<std::uint64_t>(
          7, 32,
          [&](exp::TrialContext& ctx) {
            work.inc();
            return ctx.rng();
          },
          nullptr, static_cast<std::size_t>(batch) * 32);
      rec.tick();
    }
    std::ostringstream os;
    write_timeseries_jsonl(os, rec.samples());
    return os.str();
  };
  const std::string serial = record(1);
  EXPECT_EQ(serial, record(4));
  EXPECT_NE(serial.find("\"d.work.done\":32"), std::string::npos);
}

// --- stage profiler --------------------------------------------------------

TEST(Profiler, ScopesBuildSelfTotalTree) {
  Profiler prof;
  {
    ProfilerThreadGuard guard(&prof);
    for (int i = 0; i < 3; ++i) {
      StageScope outer("outer");
      StageScope inner("inner");
    }
  }
  const StageReport report = prof.report();
  EXPECT_EQ(report.threads, 1u);
  ASSERT_EQ(report.roots.size(), 1u);
  const StageNode& outer = report.roots[0];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.count, 3u);
  ASSERT_EQ(outer.children.size(), 1u);
  EXPECT_EQ(outer.children[0].name, "inner");
  EXPECT_EQ(outer.children[0].count, 3u);
  // self = total - child totals, never negative.
  EXPECT_GE(outer.total_us, outer.children[0].total_us);
  EXPECT_GE(outer.self_us, 0.0);
  EXPECT_LE(outer.self_us, outer.total_us);
  EXPECT_DOUBLE_EQ(report.total_us(), outer.total_us);
}

TEST(Profiler, ScopeWithoutGuardIsNoOp) {
  Profiler prof;
  {
    StageScope s("unattributed");  // no guard installed on this thread
  }
  EXPECT_TRUE(prof.report().empty());
  EXPECT_EQ(Profiler::current(), nullptr);
}

TEST(Profiler, GuardsNestAndRestore) {
  Profiler a, b;
  ProfilerThreadGuard ga(&a);
  EXPECT_EQ(Profiler::current(), &a);
  {
    ProfilerThreadGuard gb(&b);
    EXPECT_EQ(Profiler::current(), &b);
    StageScope s("inner-profiler");
  }
  EXPECT_EQ(Profiler::current(), &a);
  { StageScope s("outer-profiler"); }
  ASSERT_EQ(b.report().roots.size(), 1u);
  EXPECT_EQ(b.report().roots[0].name, "inner-profiler");
  ASSERT_EQ(a.report().roots.size(), 1u);
  EXPECT_EQ(a.report().roots[0].name, "outer-profiler");
}

TEST(Profiler, MergesArenasAcrossThreads) {
  Profiler prof;
  constexpr unsigned kThreads = 4, kIters = 100;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&prof] {
      ProfilerThreadGuard guard(&prof);
      for (unsigned i = 0; i < kIters; ++i) {
        StageScope work("work");
        StageScope step("step");
      }
    });
  }
  for (auto& w : workers) w.join();
  const StageReport report = prof.report();
  EXPECT_EQ(report.threads, kThreads);
  ASSERT_EQ(report.roots.size(), 1u);
  EXPECT_EQ(report.roots[0].count, kThreads * kIters);
  ASSERT_EQ(report.roots[0].children.size(), 1u);
  EXPECT_EQ(report.roots[0].children[0].count, kThreads * kIters);
}

TEST(Profiler, StageJsonlRoundTrips) {
  Profiler prof;
  {
    ProfilerThreadGuard guard(&prof);
    StageScope trial("trial");
    StageScope route("route");
  }
  std::ostringstream os;
  write_stage_jsonl(os, prof.report());
  const auto events = parse_lines(os.str());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind(), "stage");
  EXPECT_EQ(events[0].str("path"), "trial");
  EXPECT_EQ(events[0].integer("depth"), 0);
  EXPECT_EQ(events[1].str("path"), "trial/route");
  EXPECT_EQ(events[1].str("name"), "route");
  EXPECT_EQ(events[1].integer("depth"), 1);
  EXPECT_EQ(events[1].integer("count"), 1);
  EXPECT_EQ(events[1].integer("threads"), 1);
}

TEST(Profiler, EngineMarksTrialStagesOnlyWhenInstalled) {
  // EngineOptions::profiler == nullptr must record nothing; installing
  // one yields a "trial" root with the engine.rng child per trial.
  Profiler prof;
  exp::EngineOptions eo;
  eo.threads = 2;
  {
    exp::SweepEngine plain(eo);
    (void)plain.map<int>(0, 8, [](exp::TrialContext&) { return 0; });
  }
  EXPECT_TRUE(prof.report().empty());
  eo.profiler = &prof;
  exp::SweepEngine profiled(eo);
  (void)profiled.map<int>(0, 8, [](exp::TrialContext&) { return 0; });
  const StageReport report = prof.report();
  ASSERT_EQ(report.roots.size(), 1u);
  EXPECT_EQ(report.roots[0].name, "trial");
  EXPECT_EQ(report.roots[0].count, 8u);
  ASSERT_EQ(report.roots[0].children.size(), 1u);
  EXPECT_EQ(report.roots[0].children[0].name, "engine.rng");
}

// --- dashboard -------------------------------------------------------------

TEST(Telemetry, DashboardRendersEverySection) {
  Registry reg;
  const Counter trials = reg.counter("exp.trials_run");
  const Counter d0 = reg.counter("hops.dim.0");
  const Counter d1 = reg.counter("hops.dim.1");
  const Histogram h = reg.histogram("route.hops", linear_bounds(1, 1, 8));
  Profiler prof;
  TimeSeriesRecorder rec(reg);
  {
    ProfilerThreadGuard guard(&prof);
    rec.tick();
    for (int i = 0; i < 4; ++i) {
      StageScope trial("trial");
      StageScope route("route");
      trials.inc();
      d0.inc(2);
      d1.inc();
      h.observe(3.0);
    }
    rec.tick();
  }
  std::ostringstream file;
  file << "{\"event\":\"telemetry_meta\",\"dim\":6,\"threads\":2,"
          "\"samples\":2,\"ticks\":2}\n";
  write_timeseries_jsonl(file, rec.samples());
  write_stage_jsonl(file, prof.report());

  const auto events = parse_lines(file.str());
  std::ostringstream dash;
  EXPECT_TRUE(render_dashboard(dash, events));
  const std::string out = dash.str();
  EXPECT_NE(out.find("dim=6"), std::string::npos);   // meta header
  EXPECT_NE(out.find("trial"), std::string::npos);   // stage section
  EXPECT_NE(out.find("route.hops"), std::string::npos);  // percentiles
  EXPECT_NE(out.find("throughput"), std::string::npos);  // sparkline
  EXPECT_NE(out.find("dimension utilization"), std::string::npos) << out;
}

TEST(Telemetry, DashboardHandlesEmptyInput) {
  std::ostringstream dash;
  EXPECT_FALSE(render_dashboard(dash, {}));
  EXPECT_NE(dash.str().find("no ts_sample events"), std::string::npos);
}

}  // namespace
}  // namespace slcube::obs
