// slcube::obs — Chrome-trace / Perfetto timeline export for sampled
// serving traces. Consumes the typed events the serving layer traces
// (epoch_publish lineage, promoted route chains, route_summary records),
// live or read back from JSONL with read_trace_file, and renders one
// self-contained Trace Event Format object that chrome://tracing and
// ui.perfetto.dev open directly:
//
//   * each published epoch becomes a duration slice ("X") on the
//     "epochs" track, spanning from its activation timestamp to its
//     successor's, with the lineage (parent, cause, churn, fault/link
//     census) as args;
//   * each churn-bearing publish additionally drops an instant ("i") at
//     the activation point, so fault/recovery bursts read as ticks;
//   * each promoted route becomes a duration slice on the "routes"
//     track at ts = its route id (scripted traces use the request index
//     as the time axis) with dur = hop count, carrying decision/ground
//     epochs, status, promotion reason, and staleness as args;
//   * breadcrumb-only route summaries (when the producer emitted them)
//     become instants on a third track, so the sampled remainder is
//     visible without pretending it has a chain.
//
// Timestamps are already in the trace's own unit (request index for
// scripted runs, epoch ordinal for live runs); they are passed through
// as microseconds, which Perfetto treats as an opaque linear axis.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "obs/trace.hpp"

namespace slcube::obs {

struct TimelineOptions {
  /// Render breadcrumb-only route_summary records (promoted=false) as
  /// instants on their own track.
  bool include_breadcrumbs = true;
  /// Label for the process row in the timeline UI.
  const char* process_name = "slcube serving";
};

/// What write_chrome_trace emitted (for tests and report footers).
struct TimelineStats {
  std::uint64_t epoch_slices = 0;
  std::uint64_t churn_instants = 0;
  std::uint64_t route_slices = 0;
  std::uint64_t breadcrumb_instants = 0;
  std::uint64_t events_skipped = 0;  ///< events with no timeline shape
};

/// Render `events` (e.g. from read_trace_file) into one Chrome Trace
/// Event Format JSON object on `os`. Events that have no timeline shape
/// (hops, sends, gs rounds, ...) are counted in events_skipped, not
/// errors — the exporter is meant to run over the same JSONL file the
/// audit reads.
TimelineStats write_chrome_trace(std::ostream& os,
                                 const std::vector<TraceEvent>& events,
                                 const TimelineOptions& options = {});

}  // namespace slcube::obs
