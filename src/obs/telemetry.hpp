// slcube::obs — the telemetry flight recorder: samples a metrics
// Registry over time into a bounded ring of snapshots, so a bench can
// report throughput and latency percentiles *over time* instead of one
// end-of-run scrape. Two sampling modes:
//
//  - explicit ticks (sample_interval_ms == 0): the driver calls tick() at
//    barriers it controls (after map() returns, per sweep point). No
//    thread is spawned and no wall-clock enters the exported time series,
//    so the JSONL output is byte-identical across --threads values.
//  - cadence (sample_interval_ms > 0): start() spawns one sampler thread
//    that ticks every interval until stop()/destruction. Samples carry
//    wall time and are inherently non-deterministic.
//
// Exporters: a JSONL time-series dialect ("ts_sample" lines, flat dotted
// keys) and the profiler's stage tree ("stage" lines), both written by
// obs::JsonWriter and documented in EXPERIMENTS.md (TELEMETRY).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace slcube::obs {

class Profiler;
struct StageReport;

struct RecorderOptions {
  std::size_t capacity = 4096;       ///< ring size; oldest samples drop
  unsigned sample_interval_ms = 0;   ///< 0 = explicit ticks only
};

/// One scrape with its position in the recording. `t_ms` is wall time
/// since recorder construction; meaningful only in cadence mode (explicit
/// ticks record it too, but the deterministic exporter omits it).
struct TimeSample {
  std::uint64_t tick = 0;
  double t_ms = 0.0;
  MetricsSnapshot snapshot;
};

class TimeSeriesRecorder {
 public:
  explicit TimeSeriesRecorder(Registry& registry, RecorderOptions opts = {});
  ~TimeSeriesRecorder();
  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

  /// Scrape the registry into the ring now. Thread-safe; explicit ticks
  /// and the cadence thread may interleave (ticks stay totally ordered).
  void tick();

  /// Spawn the cadence sampler (no-op unless sample_interval_ms > 0, or
  /// when one is already running). Thread-safe against concurrent
  /// start()/stop() calls and against the sampler's own ticks.
  void start();
  /// Stop and join the cadence sampler (idempotent and thread-safe; the
  /// destructor calls it). Concurrent stop() calls serialize — the loser
  /// observes the sampler already joined and returns.
  void stop();

  [[nodiscard]] bool timed() const { return opts_.sample_interval_ms > 0; }
  /// Ring contents, oldest first.
  [[nodiscard]] std::vector<TimeSample> samples() const;
  /// Ticks ever taken (≥ size(); the ring may have dropped early ones).
  [[nodiscard]] std::uint64_t total_ticks() const;
  [[nodiscard]] std::size_t size() const;

 private:
  Registry& registry_;
  const RecorderOptions opts_;
  const std::chrono::steady_clock::time_point start_time_;

  mutable std::mutex mutex_;  ///< guards ring_ and total_ticks_
  std::deque<TimeSample> ring_;
  std::uint64_t total_ticks_ = 0;

  std::mutex cv_mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  /// Serializes start()/stop() lifecycle transitions: sampler_ may only
  /// be inspected, assigned, or joined under this lock. Never taken by
  /// the sampler thread itself.
  std::mutex lifecycle_mutex_;
  std::thread sampler_;
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
/// {"event":"ts_sample","tick":N[,"t_ms":X],"c.<name>":V,"d.<name>":D,
///  "h.<name>.count":C,"h.<name>.d_count":DC,
///  "h.<name>.mean":M,"h.<name>.p50":..,"h.<name>.p90":..,
///  "h.<name>.p99":..,"h.<name>.p999":..,"h.<name>.max":..}
/// where "d." is the counter delta since the previous sample, "d_count"/
/// "mean"/percentiles describe the *interval* between samples, and "max"
/// is the running maximum. With include_wall_time false the t_ms field is
/// omitted, making the output deterministic for explicit-tick recordings.
void write_timeseries_jsonl(std::ostream& os,
                            const std::vector<TimeSample>& samples,
                            bool include_wall_time);

/// One "stage" JSONL line per profiler stage, depth-first ("path" joins
/// names with '/'): {"event":"stage","path":"trial/route","name":"route",
/// "depth":1,"count":N,"total_us":X,"self_us":Y,"threads":T}.
void write_stage_jsonl(std::ostream& os, const StageReport& report);

}  // namespace slcube::obs
