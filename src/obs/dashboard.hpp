// slcube::obs — terminal dashboard for a recorded telemetry file: takes
// the parsed "telemetry_meta" / "ts_sample" / "stage" JSONL lines (the
// records a bench writes under --telemetry, via write_timeseries_jsonl
// and write_stage_jsonl; see EXPERIMENTS.md TELEMETRY) and renders a
// per-stage time breakdown, throughput-over-time sparklines, interval
// latency percentiles, and a per-dimension hop-utilization heatmap, each
// at most 60 cells wide. These are telemetry records, not trace events,
// so the dashboard reads their keys from ParsedEvent directly. The
// renderer behind `inspect --dash`.
#pragma once

#include <iosfwd>
#include <vector>

#include "obs/jsonl.hpp"

namespace slcube::obs {

/// Render every section the events support; sections with no matching
/// events are skipped. Returns true when both the stage breakdown and
/// the throughput line were rendered — what every engine-driven
/// --telemetry record holds.
bool render_dashboard(std::ostream& os, const std::vector<ParsedEvent>& events);

}  // namespace slcube::obs
