// obs::write_chrome_trace — the Chrome-trace / Perfetto exporter. The
// tests run the real pipeline end to end: TraceEvents are serialized by
// write_json (the JSONL dialect bench_service --jsonl writes), parsed
// back with parse_jsonl_line and to_trace_event, and rendered;
// assertions then check both the TimelineStats accounting and the Trace
// Event Format shape that chrome://tracing actually requires
// (ph/pid/tid/ts/dur, "s":"t" instants, metadata rows).
#include "obs/timeline.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/jsonl.hpp"
#include "obs/trace.hpp"

namespace slcube::obs {
namespace {

std::vector<TraceEvent> parse_events(const std::vector<TraceEvent>& events) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& ev : events) {
    std::ostringstream line;
    write_json(line, ev);
    const auto parsed = parse_jsonl_line(line.str());
    TraceEvent typed;
    const bool ok = parsed.has_value() && to_trace_event(*parsed, typed);
    EXPECT_TRUE(ok) << line.str();
    if (ok) out.push_back(typed);
  }
  return out;
}

EpochPublishEvent epoch(std::uint64_t number, std::uint64_t parent,
                        const char* cause, std::uint64_t churn,
                        std::uint64_t ts) {
  EpochPublishEvent ev;
  ev.epoch = number;
  ev.parent = parent;
  ev.cause = cause;
  ev.churn = churn;
  ev.ts = ts;
  return ev;
}

RouteSummaryEvent route(std::uint64_t id, std::uint64_t decision,
                        std::uint64_t ground, bool promoted,
                        const char* reason) {
  RouteSummaryEvent ev;
  ev.route_id = id;
  ev.decision_epoch = decision;
  ev.ground_epoch = ground;
  ev.status = "delivered-optimal";
  ev.hops = 3;
  ev.promoted = promoted;
  ev.reason = reason;
  return ev;
}

std::vector<TraceEvent> sample_stream() {
  std::vector<TraceEvent> events;
  events.push_back(epoch(0, 0, "init", 0, 0));
  events.push_back(epoch(1, 0, "node-fail", 1, 10));
  events.push_back(epoch(2, 1, "batch", 3, 40));
  events.push_back(route(12, 1, 1, true, "head"));
  events.push_back(route(25, 1, 2, true, "stale"));
  events.push_back(route(30, 2, 2, false, "none"));
  events.push_back(HopEvent{});  // no timeline shape: counted as skipped
  return events;
}

TEST(Timeline, RendersAllThreeTracksAndCountsThem) {
  std::ostringstream os;
  const TimelineStats stats =
      write_chrome_trace(os, parse_events(sample_stream()));
  EXPECT_EQ(stats.epoch_slices, 3u);
  EXPECT_EQ(stats.churn_instants, 2u);  // init carries no churn
  EXPECT_EQ(stats.route_slices, 2u);
  EXPECT_EQ(stats.breadcrumb_instants, 1u);
  EXPECT_EQ(stats.events_skipped, 1u);

  const std::string json = os.str();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // Metadata rows: process name + one thread_name per track.
  EXPECT_NE(json.find("\"slcube serving\""), std::string::npos);
  EXPECT_NE(json.find("\"epochs\""), std::string::npos);
  EXPECT_NE(json.find("\"routes (promoted)\""), std::string::npos);
  EXPECT_NE(json.find("\"routes (breadcrumb)\""), std::string::npos);
  // Promoted routes are duration slices; breadcrumbs thread-scoped ticks.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"route 12 (delivered-optimal)\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"churn: node-fail\""), std::string::npos);
  // Route 25 decided on epoch 1, whose lineage names the churn cause.
  EXPECT_NE(json.find("\"decision_churn\":\"node-fail\""), std::string::npos);
  // Stale flag is computed from the epoch pair, not trusted from input.
  EXPECT_NE(json.find("\"stale\":1"), std::string::npos);
  // The object closes properly (parseable by the UIs).
  EXPECT_EQ(json.substr(json.size() - 4), "\n]}\n");
}

TEST(Timeline, EpochSliceSpansToItsSuccessor) {
  std::ostringstream os;
  (void)write_chrome_trace(os, parse_events(sample_stream()));
  const std::string json = os.str();
  // epoch 0 activates at 0 and epoch 1 at 10: dur = 10.
  EXPECT_NE(json.find("\"name\":\"epoch 0\",\"ts\":0,\"dur\":10"),
            std::string::npos);
  // epoch 1 spans to epoch 2's activation: 40 - 10 = 30.
  EXPECT_NE(json.find("\"name\":\"epoch 1\",\"ts\":10,\"dur\":30"),
            std::string::npos);
}

TEST(Timeline, IntegralValuesPastAMillionStayExact) {
  // Route ids and epochs share the integer time axis; at six significant
  // digits routes 1234567 and 1234568 would land on one tick.
  std::vector<TraceEvent> events;
  events.push_back(epoch(1234567, 1234566, "node-fail", 1, 1234560));
  events.push_back(route(1234567, 1234567, 1234567, true, "head"));
  events.push_back(route(1234568, 1234567, 1234567, true, "head"));
  std::ostringstream os;
  (void)write_chrome_trace(os, parse_events(events));
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ts\":1234567,"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1234568,"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"epoch\":1234567,\"parent\":1234566,"),
            std::string::npos);
  EXPECT_EQ(json.find("e+06"), std::string::npos) << json;
}

TEST(Timeline, BreadcrumbTrackCanBeDisabled) {
  std::ostringstream os;
  TimelineOptions options;
  options.include_breadcrumbs = false;
  const TimelineStats stats =
      write_chrome_trace(os, parse_events(sample_stream()), options);
  EXPECT_EQ(stats.route_slices, 2u);
  EXPECT_EQ(stats.breadcrumb_instants, 0u);
  const std::string json = os.str();
  EXPECT_EQ(json.find("\"routes (breadcrumb)\""), std::string::npos);
  EXPECT_EQ(json.find("route 30"), std::string::npos);
}

TEST(Timeline, CustomProcessNameIsEscapedIntoMetadata) {
  std::ostringstream os;
  TimelineOptions options;
  options.process_name = "bench \"sample\" run";
  (void)write_chrome_trace(os, parse_events(sample_stream()), options);
  EXPECT_NE(os.str().find("\"bench \\\"sample\\\" run\""), std::string::npos);
}

TEST(Timeline, EmptyInputStillEmitsAValidSkeleton) {
  std::ostringstream os;
  const TimelineStats stats = write_chrome_trace(os, {});
  EXPECT_EQ(stats.epoch_slices, 0u);
  EXPECT_EQ(stats.route_slices, 0u);
  EXPECT_EQ(stats.breadcrumb_instants, 0u);
  EXPECT_EQ(stats.events_skipped, 0u);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 4), "\n]}\n");
}

}  // namespace
}  // namespace slcube::obs
