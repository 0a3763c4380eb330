// slcube::obs — registry sharding/merging, histogram quantiles, trace
// sinks (ring buffer + JSONL round trip), span timers, and the traced
// unicast event stream (source decision, every hop, spare detours).
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "core/global_status.hpp"
#include "core/unicast.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace slcube::obs {
namespace {

// --- metrics registry ------------------------------------------------------

TEST(Metrics, CounterCountsAndScrapes) {
  Registry reg;
  const Counter c = reg.counter("test.count");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(reg.scrape().counter("test.count"), 5u);
  EXPECT_EQ(reg.scrape().counter("absent"), 0u);
}

TEST(Metrics, RegistrationIsIdempotent) {
  Registry reg;
  const Counter a = reg.counter("shared");
  const Counter b = reg.counter("shared");
  a.inc();
  b.inc();
  EXPECT_EQ(reg.scrape().counter("shared"), 2u);
  EXPECT_EQ(reg.scrape().counters.size(), 1u);
}

TEST(Metrics, DefaultConstructedHandlesAreNullSafe) {
  const Counter c;
  const Gauge g;
  const Histogram h;
  c.inc();
  g.set(7);
  h.observe(1.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.snapshot().count, 0u);
}

TEST(Metrics, GaugeSetAndAdd) {
  Registry reg;
  const Gauge g = reg.gauge("test.gauge");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  EXPECT_EQ(reg.scrape().gauge("test.gauge"), 7);
}

TEST(Metrics, ScrapeMergesThreadShards) {
  Registry reg;
  const Counter c = reg.counter("mt.count");
  const Histogram h = reg.histogram("mt.hist", exponential_bounds(1, 2, 8));
  constexpr unsigned kThreads = 4, kPerThread = 1000;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (unsigned i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(2.0);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(reg.scrape().counter("mt.count"), kThreads * kPerThread);
  EXPECT_EQ(h.snapshot().count, kThreads * kPerThread);
}

TEST(Metrics, TwoRegistriesDoNotShareShards) {
  Registry a, b;
  const Counter ca = a.counter("x");
  const Counter cb = b.counter("x");
  ca.inc(3);
  cb.inc(5);
  EXPECT_EQ(a.scrape().counter("x"), 3u);
  EXPECT_EQ(b.scrape().counter("x"), 5u);
}

TEST(Metrics, HistogramDataQuantilesAndMerge) {
  HistogramData h(exponential_bounds(1, 2, 10));  // 1, 2, 4, ... 512
  for (int i = 0; i < 90; ++i) h.observe(3.0);   // bucket <= 4
  for (int i = 0; i < 10; ++i) h.observe(100.0);  // bucket <= 128
  EXPECT_EQ(h.count, 100u);
  // Interpolated within the target bucket, clamped by the exact extremes:
  // p50 lands 50/90 of the way through [min_seen=3, 4]; p99 lands 9/10 of
  // the way through [64, max_seen=100].
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0 + (50.0 / 90.0) * 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 64.0 + 0.9 * 36.0);
  EXPECT_DOUBLE_EQ(h.min_seen, 3.0);
  EXPECT_DOUBLE_EQ(h.max_seen, 100.0);

  HistogramData other(exponential_bounds(1, 2, 10));
  other.observe(1000.0);  // overflow bucket — exact max still tracked
  h.merge(other);
  EXPECT_EQ(h.count, 101u);
  EXPECT_DOUBLE_EQ(h.max_seen, 1000.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
}

TEST(Metrics, HistogramDataCountsBeyond32BitsStayExact) {
  // Mega-cube sweeps (10M+ routes x repeated merges across engines and
  // telemetry batches) push bucket counts past 2^32. Buckets and count
  // are u64; doubling a two-bucket histogram 33 times reaches 2^34
  // observations and every derived statistic must stay exact (the sums
  // involved are exact dyadic doubles, well under 2^53).
  HistogramData acc(exponential_bounds(1, 10, 2));  // bounds 1, 10
  acc.observe(0.5);
  acc.observe(5.5);
  for (int i = 0; i < 33; ++i) {
    const HistogramData snapshot = acc;
    acc.merge(snapshot);
  }
  const std::uint64_t half = std::uint64_t{1} << 33;
  EXPECT_EQ(acc.count, std::uint64_t{1} << 34);
  ASSERT_EQ(acc.buckets.size(), 3u);
  EXPECT_EQ(acc.buckets[0], half);  // <= 1
  EXPECT_EQ(acc.buckets[1], half);  // <= 10
  EXPECT_EQ(acc.buckets[2], 0u);    // overflow untouched
  EXPECT_DOUBLE_EQ(acc.sum, 6.0 * static_cast<double>(half));
  EXPECT_DOUBLE_EQ(acc.mean(), 3.0);
  EXPECT_DOUBLE_EQ(acc.min_seen, 0.5);
  EXPECT_DOUBLE_EQ(acc.max_seen, 5.5);
  EXPECT_DOUBLE_EQ(acc.quantile(0.0), 0.5);
  EXPECT_DOUBLE_EQ(acc.quantile(1.0), 5.5);
}

TEST(Metrics, QuantileEdgeCases) {
  // Empty histogram: every quantile is 0 by definition.
  HistogramData empty(exponential_bounds(1, 2, 4));
  EXPECT_DOUBLE_EQ(empty.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(1.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);

  // q = 0 and q = 1 are the exact observed extremes, not bucket bounds.
  HistogramData h(exponential_bounds(1, 2, 4));  // 1, 2, 4, 8
  h.observe(1.5);   // bucket <= 2
  h.observe(7.0);   // bucket <= 8
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 7.0);

  // Overflow-bucket values are no longer clamped to the last bound: the
  // running max keeps p100 (and p999 on a big tail) honest.
  HistogramData over(exponential_bounds(1, 2, 4));
  over.observe(100.0);
  over.observe(1e9);
  EXPECT_DOUBLE_EQ(over.quantile(0.0), 100.0);
  EXPECT_DOUBLE_EQ(over.quantile(1.0), 1e9);

  // A single-bound ladder still answers sanely on both sides.
  HistogramData one(exponential_bounds(5, 3, 1));  // bounds = {5}
  one.observe(2.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.5), 2.0);
  one.observe(50.0);  // overflow
  EXPECT_DOUBLE_EQ(one.quantile(1.0), 50.0);

  // q outside [0, 1] clamps to the observed extremes, and NaN — which
  // compares false against everything — clamps to the min instead of
  // falling through to max_seen (the old behavior).
  EXPECT_DOUBLE_EQ(h.quantile(-0.5), 1.5);
  EXPECT_DOUBLE_EQ(h.quantile(2.0), 7.0);
  EXPECT_DOUBLE_EQ(h.quantile(std::numeric_limits<double>::quiet_NaN()), 1.5);
  EXPECT_DOUBLE_EQ(
      empty.quantile(std::numeric_limits<double>::quiet_NaN()), 0.0);
}

TEST(Metrics, WriteJsonAgreesWithQuantileEdges) {
  // A registered-but-never-observed histogram must serialize the same
  // defined zeros that quantile() now returns — no NaNs, no garbage.
  Registry reg;
  (void)reg.histogram("edge.hist", exponential_bounds(1, 2, 4));
  std::ostringstream os;
  reg.scrape().write_json(os);
  EXPECT_NE(os.str().find("\"edge.hist\":{\"count\":0,\"mean\":0,\"p50\":0,"
                          "\"p90\":0,\"p99\":0,\"p999\":0,\"max\":0}"),
            std::string::npos)
      << os.str();
}

TEST(Metrics, LinearBoundsHelper) {
  const auto bounds = linear_bounds(1.0, 1.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[3], 4.0);
}

TEST(Metrics, SnapshotJsonIsParseable) {
  Registry reg;
  reg.counter("a.count").inc(3);
  reg.gauge("a.gauge").set(-2);
  reg.histogram("a.hist", exponential_bounds(1, 10, 4)).observe(50.0);
  std::ostringstream os;
  reg.scrape().write_json(os);
  const auto parsed = parse_jsonl_line(os.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->integer("a.count"), 3);
  EXPECT_EQ(parsed->integer("a.gauge"), -2);
  EXPECT_EQ(parsed->integer("a.hist.count"), 1);
  // The tail fields ride along: p999 interpolated, max exact.
  EXPECT_TRUE(parsed->has("a.hist.p999"));
  EXPECT_DOUBLE_EQ(parsed->num("a.hist.max"), 50.0);
}

TEST(Metrics, GaugeSurvivesConcurrentAddAndSet) {
  // Gauges are documented thread-safe; hammer add() against set() from
  // several threads and require exact accounting of the adds afterwards
  // (the final set() re-baselines, so only the post-set adds remain).
  Registry reg;
  const Gauge g = reg.gauge("mt.gauge");
  g.set(0);
  constexpr unsigned kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        g.add(1);
        g.add(-1);
        g.add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(g.value(), kThreads * kPerThread);
  EXPECT_EQ(reg.scrape().gauge("mt.gauge"), kThreads * kPerThread);
}

TEST(Metrics, DeadThreadShardsFoldIntoRetiredAccumulator) {
  // Regression for the per-thread shard leak: a registry that outlives
  // many short-lived writer threads must not grow its shard map without
  // bound, and no count may be lost when a shard retires.
  Registry reg;
  const Counter c = reg.counter("retire.count");
  const Histogram h = reg.histogram("retire.hist", exponential_bounds(1, 2, 8));
  constexpr unsigned kRuns = 100;
  for (unsigned run = 0; run < kRuns; ++run) {
    std::thread worker([&] {
      c.inc(3);
      h.observe(2.0);
    });
    worker.join();
    // Totals survive the writer thread's death...
    EXPECT_EQ(c.value(), 3u * (run + 1));
    EXPECT_EQ(reg.scrape().counter("retire.count"), 3u * (run + 1));
  }
  EXPECT_EQ(h.snapshot().count, kRuns);
  // ...and scrape() folded the dead shards away instead of hoarding one
  // map entry per ever-seen thread (this thread's own shard may remain).
  EXPECT_LE(reg.live_shards(), 2u);
}

// --- trace sinks -----------------------------------------------------------

TEST(Trace, RingBufferKeepsNewestAfterWrap) {
  RingBufferSink ring(/*capacity=*/3);
  for (std::uint32_t i = 0; i < 5; ++i) {
    ring.on_event(NodeFailEvent{/*time=*/i, /*node=*/i});
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.total_seen(), 5u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 3u);
  // Oldest-first: failures 2, 3, 4 survive.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(std::get<NodeFailEvent>(events[i]).node, i + 2);
  }
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total_seen(), 0u);
}

TEST(Trace, JsonlRoundTripPreservesEveryEventKind) {
  std::ostringstream os;
  {
    JsonlSink sink(os);
    SourceDecisionEvent src;
    src.source = 5;
    src.dest = 6;
    src.hamming = 2;
    src.c1 = true;
    src.chosen_dim = 1;
    src.ties = 2;
    sink.on_event(src);
    HopEvent hop;
    hop.from = 5;
    hop.to = 7;
    hop.dim = 1;
    hop.level = 3;
    hop.nav_before = 3;
    hop.nav_after = 1;
    hop.preferred = false;
    sink.on_event(hop);
    sink.on_event(RouteDoneEvent{5, 6, "delivered-optimal", 2});
    sink.on_event(GsRoundEvent{1, 4, 32, 9, true});
    sink.on_event(MessageSendEvent{7, 5, 7, MsgKind::kUnicast});
    sink.on_event(MessageDropEvent{8, 5, 7, MsgKind::kLevelUpdate,
                                   "faulty-link"});
    sink.on_event(NodeFailEvent{2, 9});
    sink.on_event(NodeRecoverEvent{3, 9});
    RouteSummaryEvent summary;
    summary.route_id = 7;
    summary.latency_us = 123.5;
    sink.on_event(summary);
    SweepPointEvent sp;
    sp.sweep = "routing";
    sp.fault_count = 12;
    sp.wall_ms = 1.5;
    sp.values = {{"delivered_pct", 99.5}};
    sink.on_event(sp);
  }

  std::istringstream is(os.str());
  std::vector<ParsedEvent> events;
  for (std::string line; std::getline(is, line);) {
    auto parsed = parse_jsonl_line(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    events.push_back(std::move(*parsed));
  }
  ASSERT_EQ(events.size(), 10u);
  EXPECT_EQ(events[0].kind(), "source_decision");
  EXPECT_EQ(events[0].integer("source"), 5);
  EXPECT_TRUE(events[0].boolean("c1"));
  EXPECT_FALSE(events[0].boolean("c2"));
  EXPECT_EQ(events[0].integer("chosen_dim"), 1);
  EXPECT_EQ(events[1].kind(), "hop");
  EXPECT_FALSE(events[1].boolean("preferred"));
  EXPECT_EQ(events[1].integer("nav_after"), 1);
  EXPECT_EQ(events[2].str("status"), "delivered-optimal");
  EXPECT_TRUE(events[3].boolean("egs"));
  EXPECT_EQ(events[4].str("kind"), "unicast");
  EXPECT_EQ(events[5].str("reason"), "faulty-link");
  EXPECT_EQ(events[6].kind(), "node_fail");
  EXPECT_EQ(events[7].kind(), "node_recover");
  EXPECT_EQ(events[8].kind(), "route_summary");
  EXPECT_DOUBLE_EQ(events[8].num("latency_us"), 123.5);
  EXPECT_EQ(events[9].str("sweep"), "routing");
  EXPECT_DOUBLE_EQ(events[9].num("values.delivered_pct"), 99.5);
}

TEST(Trace, ParserRejectsMalformedLines) {
  EXPECT_FALSE(parse_jsonl_line("not json").has_value());
  EXPECT_FALSE(parse_jsonl_line("{\"unterminated\":").has_value());
  EXPECT_FALSE(parse_jsonl_line("{\"arr\":[1,2]}").has_value());
  EXPECT_TRUE(parse_jsonl_line("{}").has_value());
  EXPECT_TRUE(parse_jsonl_line(" {\"k\":null} ").has_value());
}

TEST(Trace, ParserSurvivesTruncationFuzz) {
  // Every prefix of a valid line must either parse or be rejected —
  // never crash, never hang. Also try a few byte-level mutations.
  std::ostringstream os;
  {
    JsonlSink sink(os);
    SweepPointEvent sp;
    sp.sweep = "routing \"q\" \\ fuzz";
    sp.fault_count = 3;
    sp.wall_ms = 0.25;
    sp.values = {{"delivered_pct", 50.0}};
    sink.on_event(sp);
    sink.on_event(MessageDropEvent{1, 2, 3, MsgKind::kUnicast, "dead-node"});
  }
  std::istringstream is(os.str());
  for (std::string line; std::getline(is, line);) {
    ASSERT_TRUE(parse_jsonl_line(line).has_value()) << line;
    for (std::size_t cut = 0; cut < line.size(); ++cut) {
      (void)parse_jsonl_line(line.substr(0, cut));
    }
    for (std::size_t i = 0; i < line.size(); i += 3) {
      std::string mutated = line;
      mutated[i] = static_cast<char>(mutated[i] ^ 0x15);
      (void)parse_jsonl_line(mutated);
    }
  }
}

TEST(Trace, EscapedStringsRoundTrip) {
  // The one escaping rule: quotes and backslashes escaped, control bytes
  // as \n \t \r or \u00XX, so a line never carries a raw control byte.
  const char* const name = "quote \" backslash \\ nl \n tab \t cr \r bell \a";
  std::ostringstream os;
  {
    JsonlSink sink(os);
    sink.on_event(RouteDoneEvent{0, 1, name, 1});
  }
  std::string line = os.str();
  ASSERT_FALSE(line.empty());
  line.pop_back();  // the sink terminates the line; the parser is line-scoped
  for (const char c : line) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << line;
  }
  const auto parsed = parse_jsonl_line(line);
  ASSERT_TRUE(parsed.has_value()) << line;
  EXPECT_EQ(parsed->str("status"), name);
}

TEST(Trace, RingBufferSurvivesConcurrentWriters) {
  // The ring is documented thread-safe: hammer it from several threads
  // and require exact accounting afterwards (TSan covers the rest).
  RingBufferSink ring(/*capacity=*/64);
  constexpr unsigned kThreads = 4, kPerThread = 2500;
  std::vector<std::thread> writers;
  for (unsigned t = 0; t < kThreads; ++t) {
    writers.emplace_back([&ring, t] {
      for (unsigned i = 0; i < kPerThread; ++i) {
        ring.on_event(NodeFailEvent{i, t});
        if (i % 97 == 0) (void)ring.snapshot();
        if (i % 131 == 0) (void)ring.size();
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(ring.total_seen(), kThreads * kPerThread);
  EXPECT_EQ(ring.size(), 64u);
  EXPECT_EQ(ring.snapshot().size(), 64u);
}

TEST(Trace, JsonlFileSinkAndReader) {
  const std::string path = ::testing::TempDir() + "slcube_obs_trace.jsonl";
  {
    JsonlSink sink(path);
    sink.on_event(NodeFailEvent{1, 2});
    sink.on_event(NodeRecoverEvent{5, 2});
  }
  std::size_t malformed = 0;
  const auto events = read_jsonl_file(path, &malformed);
  EXPECT_EQ(malformed, 0u);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind(), "node_fail");
  EXPECT_EQ(events[1].integer("time"), 5);
  std::remove(path.c_str());
}

TEST(Trace, TeeSinkFansOut) {
  RingBufferSink a, b;
  TeeSink tee({&a, &b});
  tee.on_event(NodeFailEvent{0, 1});
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 1u);
}

TEST(Trace, RingBufferCountsEvictionsExactly) {
  // dropped() is what audit_ring folds into events_lost: it must be
  // exactly total_seen - retained, zero before the first wrap, and reset
  // by clear() along with the rest of the accounting.
  RingBufferSink ring(/*capacity=*/3);
  ring.on_event(NodeFailEvent{0, 0});
  ring.on_event(NodeFailEvent{1, 1});
  EXPECT_EQ(ring.dropped(), 0u);
  for (std::uint32_t i = 2; i < 7; ++i) {
    ring.on_event(NodeFailEvent{i, i});
  }
  EXPECT_EQ(ring.total_seen(), 7u);
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.dropped(), 4u);
  EXPECT_EQ(ring.total_seen() - ring.size(), ring.dropped());
  ring.clear();
  EXPECT_EQ(ring.dropped(), 0u);
  ring.on_event(NodeFailEvent{9, 9});
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.total_seen(), 1u);
}

TEST(Trace, LockedJsonlSinkKeepsLinesWholeUnderContention) {
  // The documented contract: whole lines are written atomically, so a
  // shared stream fed by several threads still yields one parseable JSON
  // object per line. (TSan runs this test too — the lock is the point.)
  std::ostringstream os;
  constexpr unsigned kThreads = 4, kPerThread = 500;
  {
    LockedJsonlSink sink(os);
    std::vector<std::thread> writers;
    for (unsigned t = 0; t < kThreads; ++t) {
      writers.emplace_back([&sink, t] {
        for (unsigned i = 0; i < kPerThread; ++i) {
          sink.on_event(RouteDoneEvent{t, i, "locked-writer", i});
        }
      });
    }
    for (auto& w : writers) w.join();
  }
  std::istringstream is(os.str());
  std::size_t lines = 0;
  for (std::string line; std::getline(is, line); ++lines) {
    const auto parsed = parse_jsonl_line(line);
    ASSERT_TRUE(parsed.has_value()) << "interleaved line: " << line;
    EXPECT_EQ(parsed->str("status"), "locked-writer");
  }
  EXPECT_EQ(lines, kThreads * kPerThread);
}

TEST(Trace, TeeSinkFansOutConcurrently) {
  // TeeSink adds no locking of its own; with thread-safe children (ring +
  // locked JSONL) concurrent producers must land every event in both.
  RingBufferSink ring(/*capacity=*/128);
  std::ostringstream os;
  constexpr unsigned kThreads = 4, kPerThread = 500;
  {
    LockedJsonlSink jsonl(os);
    TeeSink tee({&ring, &jsonl});
    std::vector<std::thread> writers;
    for (unsigned t = 0; t < kThreads; ++t) {
      writers.emplace_back([&tee, t] {
        for (unsigned i = 0; i < kPerThread; ++i) {
          tee.on_event(NodeFailEvent{i, t});
        }
      });
    }
    for (auto& w : writers) w.join();
  }
  EXPECT_EQ(ring.total_seen(), kThreads * kPerThread);
  EXPECT_EQ(ring.dropped(), kThreads * kPerThread - 128);
  std::istringstream is(os.str());
  std::size_t lines = 0;
  for (std::string line; std::getline(is, line); ++lines) {
    ASSERT_TRUE(parse_jsonl_line(line).has_value()) << line;
  }
  EXPECT_EQ(lines, kThreads * kPerThread);
}

// --- traced unicast --------------------------------------------------------

TEST(TracedUnicast, OptimalRouteEmitsFullReplayableStream) {
  const topo::Hypercube q(4);
  const fault::FaultSet none(q.num_nodes());
  const auto lv = core::compute_safety_levels(q, none);
  RingBufferSink ring;
  core::UnicastOptions uo;
  uo.trace = &ring;
  const NodeId s = 0b1110, d = 0b0001;
  const auto r = core::route_unicast(q, none, lv, s, d, uo);
  ASSERT_EQ(r.status, core::RouteStatus::kDeliveredOptimal);

  const auto events = ring.snapshot();
  // source decision + one hop per edge + route done.
  ASSERT_EQ(events.size(), 2u + r.hops());
  const auto& src = std::get<SourceDecisionEvent>(events[0]);
  EXPECT_EQ(src.source, s);
  EXPECT_EQ(src.dest, d);
  EXPECT_EQ(src.hamming, 4u);
  EXPECT_TRUE(src.c1);
  EXPECT_FALSE(src.spare);
  // Hops chain along the returned path, and navigation shrinks to zero.
  for (std::size_t i = 0; i < r.hops(); ++i) {
    const auto& hop = std::get<HopEvent>(events[i + 1]);
    EXPECT_EQ(hop.from, r.path[i]);
    EXPECT_EQ(hop.to, r.path[i + 1]);
    EXPECT_TRUE(hop.preferred);
    EXPECT_EQ(hop.nav_after, hop.nav_before & ~bits::unit(hop.dim));
  }
  EXPECT_EQ(std::get<HopEvent>(events[events.size() - 2]).nav_after, 0u);
  const auto& done = std::get<RouteDoneEvent>(events.back());
  EXPECT_STREQ(done.status, "delivered-optimal");
  EXPECT_EQ(done.hops, r.hops());
}

TEST(TracedUnicast, SpareDetourMarkedInStream) {
  // The C3-only scenario from test_unicast: faults {0100, 0111} force
  // source 0101 -> 0110 (H = 2) onto the spare-dimension detour.
  const topo::Hypercube q(4);
  const fault::FaultSet f(q.num_nodes(), {0b0100, 0b0111});
  const auto lv = core::compute_safety_levels(q, f);
  const NodeId s = 0b0101, d = 0b0110;
  const auto dec = core::decide_at_source(q, lv, s, d);
  ASSERT_TRUE(!dec.c1 && !dec.c2 && dec.c3)
      << "scenario no longer exercises the spare branch";

  RingBufferSink ring;
  core::UnicastOptions uo;
  uo.trace = &ring;
  const auto r = core::route_unicast(q, f, lv, s, d, uo);
  ASSERT_EQ(r.status, core::RouteStatus::kDeliveredSuboptimal);
  ASSERT_EQ(r.hops(), 4u);

  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 6u);  // source + 4 hops + done
  const auto& src = std::get<SourceDecisionEvent>(events[0]);
  EXPECT_TRUE(src.spare);
  EXPECT_GE(src.chosen_dim, 0);
  const auto& first_hop = std::get<HopEvent>(events[1]);
  EXPECT_FALSE(first_hop.preferred);  // the detour leaves the preferred set
  // The detour *adds* the spare dimension to the navigation vector.
  EXPECT_EQ(bits::popcount(first_hop.nav_after), 3u);
  for (std::size_t i = 2; i <= 4; ++i) {
    EXPECT_TRUE(std::get<HopEvent>(events[i]).preferred);
  }
  EXPECT_STREQ(std::get<RouteDoneEvent>(events.back()).status,
               "delivered-suboptimal");
}

TEST(TracedUnicast, TracingDoesNotPerturbRandomTieBreaks) {
  const topo::Hypercube q(5);
  const fault::FaultSet f(q.num_nodes(), {1, 2, 20});
  const auto lv = core::compute_safety_levels(q, f);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Xoshiro256ss rng_a(seed), rng_b(seed);
    core::UnicastOptions plain;
    plain.tie_break = core::TieBreak::kRandom;
    plain.rng = &rng_a;
    RingBufferSink ring;
    core::UnicastOptions traced = plain;
    traced.rng = &rng_b;
    traced.trace = &ring;
    const auto ra = core::route_unicast(q, f, lv, 0, 31, plain);
    const auto rb = core::route_unicast(q, f, lv, 0, 31, traced);
    ASSERT_EQ(ra.path, rb.path) << "tracing changed the routed path";
    ASSERT_EQ(ra.status, rb.status);
  }
}

// --- recorder lifecycle (TSan regression) ----------------------------------

// Regression for the unlocked start()/stop() window: two concurrent
// start() calls could both observe sampler_ as non-joinable and the
// second assignment to a running std::thread calls std::terminate; a
// stop() racing a start() (or another stop(), or the destructor) was a
// data race on sampler_ itself. With lifecycle_mutex_ every
// interleaving below must be terminate-free and TSan-clean, with ticks
// and scrapes running through the middle of the transitions.
TEST(Telemetry, LifecycleTransitionsRaceFreely) {
  for (int round = 0; round < 8; ++round) {
    Registry reg;
    const Counter c = reg.counter("life.count");
    RecorderOptions opts;
    opts.sample_interval_ms = 1;
    auto rec = std::make_unique<TimeSeriesRecorder>(reg, opts);
    std::vector<std::thread> callers;
    callers.reserve(6);
    // Double start: exactly one may spawn, the other must no-op.
    callers.emplace_back([&] { rec->start(); });
    callers.emplace_back([&] { rec->start(); });
    // Stop racing the starts and a full start/stop cycle.
    callers.emplace_back([&] { rec->stop(); });
    callers.emplace_back([&] {
      rec->start();
      rec->stop();
    });
    // Explicit ticks and scrapes racing the sampler thread's own ticks.
    callers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        c.inc();
        rec->tick();
      }
    });
    callers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        (void)rec->samples();
        (void)rec->total_ticks();
      }
    });
    for (auto& t : callers) t.join();
    rec->stop();
    rec->stop();  // idempotent after everything settled
    // Destructor path: must join a still-running sampler cleanly.
    rec->start();
    rec.reset();
  }
}

}  // namespace
}  // namespace slcube::obs
