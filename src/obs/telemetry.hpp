// slcube::obs — the telemetry flight recorder: samples a metrics
// Registry into a bounded ring of snapshots, so a bench can report
// throughput and latency percentiles *over time* instead of one
// end-of-run scrape. It samples only when its driver calls tick(), at
// barriers the driver controls (such as after each sweep point or trial
// batch). No thread is spawned and no wall-clock enters the exported
// time series, so the JSONL output is byte-identical across --threads
// values.
//
// Exporters: a JSONL time-series dialect ("ts_sample" lines, flat dotted
// keys) and the profiler's stage tree ("stage" lines), both written by
// obs::JsonWriter and documented in EXPERIMENTS.md (TELEMETRY).
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"

namespace slcube::obs {

class Profiler;
struct StageReport;

/// One scrape with its position in the recording.
struct TimeSample {
  std::uint64_t tick = 0;
  MetricsSnapshot snapshot;
};

class TimeSeriesRecorder {
 public:
  /// Keeps the newest `capacity` samples; older ones drop.
  explicit TimeSeriesRecorder(Registry& registry, std::size_t capacity = 4096);
  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

  /// Scrape the registry into the ring now. Thread-safe: concurrent ticks
  /// stay totally ordered.
  void tick();

  /// Ring contents, oldest first.
  [[nodiscard]] std::vector<TimeSample> samples() const;
  /// Ticks ever taken (≥ size(); the ring may have dropped early ones).
  [[nodiscard]] std::uint64_t total_ticks() const;
  [[nodiscard]] std::size_t size() const;

 private:
  Registry& registry_;
  const std::size_t capacity_;

  mutable std::mutex mutex_;  ///< guards ring_ and total_ticks_
  std::deque<TimeSample> ring_;
  std::uint64_t total_ticks_ = 0;
};

/// The bundle a driver threads through sweep configs to turn telemetry
/// on: all pointers optional and non-owning. Cost when disabled is one
/// null check at each hook site.
struct InstrumentationHooks {
  Registry* registry = nullptr;
  Profiler* profiler = nullptr;
  TimeSeriesRecorder* recorder = nullptr;

  [[nodiscard]] bool enabled() const {
    return registry != nullptr || profiler != nullptr || recorder != nullptr;
  }
  /// Record a sample at a deterministic barrier (no-op without recorder).
  void tick() const;
};

/// One "ts_sample" JSONL line per sample, flat dotted keys:
/// {"event":"ts_sample","tick":N,"c.<name>":V,"d.<name>":D,
///  "h.<name>.count":C,"h.<name>.d_count":DC,
///  "h.<name>.mean":M,"h.<name>.p50":..,"h.<name>.p90":..,
///  "h.<name>.p99":..,"h.<name>.p999":..,"h.<name>.max":..}
/// where "d." is the counter delta since the previous sample, "d_count"/
/// "mean"/percentiles describe the *interval* between samples, and "max"
/// is the running maximum.
void write_timeseries_jsonl(std::ostream& os,
                            const std::vector<TimeSample>& samples);

/// One "stage" JSONL line per profiler stage, depth-first ("path" joins
/// names with '/'): {"event":"stage","path":"trial/route","name":"route",
/// "depth":1,"count":N,"total_us":X,"self_us":Y,"threads":T}.
void write_stage_jsonl(std::ostream& os, const StageReport& report);

}  // namespace slcube::obs
