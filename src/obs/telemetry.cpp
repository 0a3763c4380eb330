#include "obs/telemetry.hpp"

#include <algorithm>
#include <ostream>
#include <string>

#include "obs/jsonl.hpp"
#include "obs/profiler.hpp"

namespace slcube::obs {

using Clock = std::chrono::steady_clock;

TimeSeriesRecorder::TimeSeriesRecorder(Registry& registry,
                                       RecorderOptions opts)
    : registry_(registry), opts_(opts), start_time_(Clock::now()) {}

TimeSeriesRecorder::~TimeSeriesRecorder() { stop(); }

void TimeSeriesRecorder::tick() {
  // Scrape outside the ring lock: scrape() takes the registry's own locks
  // and may be slow relative to a deque push.
  MetricsSnapshot snap = registry_.scrape();
  const double t_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start_time_)
          .count();
  std::lock_guard lock(mutex_);
  TimeSample sample;
  sample.tick = total_ticks_++;
  sample.t_ms = t_ms;
  sample.snapshot = std::move(snap);
  ring_.push_back(std::move(sample));
  while (ring_.size() > opts_.capacity) ring_.pop_front();
}

void TimeSeriesRecorder::start() {
  // lifecycle_mutex_ serializes the joinable-check/assign (and the
  // joinable-check/join in stop()): without it two concurrent start()
  // calls can both see a non-joinable sampler_ and the second assignment
  // to a running std::thread calls std::terminate, and a start() racing
  // a stop() is a data race on sampler_ itself. The sampler thread never
  // takes this mutex, so holding it across spawn/join cannot deadlock.
  std::lock_guard lifecycle(lifecycle_mutex_);
  if (!timed() || sampler_.joinable()) return;
  {
    std::lock_guard lock(cv_mutex_);
    stopping_ = false;
  }
  sampler_ = std::thread([this] {
    const auto interval = std::chrono::milliseconds(opts_.sample_interval_ms);
    std::unique_lock lock(cv_mutex_);
    while (!cv_.wait_for(lock, interval, [this] { return stopping_; })) {
      lock.unlock();
      tick();
      lock.lock();
    }
  });
}

void TimeSeriesRecorder::stop() {
  std::lock_guard lifecycle(lifecycle_mutex_);
  if (!sampler_.joinable()) return;
  {
    std::lock_guard lock(cv_mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  sampler_.join();
}

std::vector<TimeSample> TimeSeriesRecorder::samples() const {
  std::lock_guard lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

std::uint64_t TimeSeriesRecorder::total_ticks() const {
  std::lock_guard lock(mutex_);
  return total_ticks_;
}

std::size_t TimeSeriesRecorder::size() const {
  std::lock_guard lock(mutex_);
  return ring_.size();
}

void InstrumentationHooks::tick() const {
  if (recorder != nullptr) recorder->tick();
}

// --- JSONL time-series exporter --------------------------------------------

namespace {

/// The histogram of activity between two samples: bucketwise difference.
/// The interval extremes are unknowable from cumulative buckets, so the
/// running extremes clamp the interpolation instead (still exact bounds
/// on anything observed in the interval).
HistogramData interval_histogram(const HistogramData& cur,
                                 const HistogramData* prev) {
  HistogramData d = cur;
  if (prev != nullptr && prev->count > 0 && prev->bounds == cur.bounds) {
    for (std::size_t i = 0; i < d.buckets.size(); ++i) {
      d.buckets[i] -= std::min(d.buckets[i], prev->buckets[i]);
    }
    d.count -= std::min(d.count, prev->count);
    d.sum -= prev->sum;
  }
  return d;
}

}  // namespace

void write_timeseries_jsonl(std::ostream& os,
                            const std::vector<TimeSample>& samples,
                            bool include_wall_time) {
  const TimeSample* prev = nullptr;
  for (const TimeSample& s : samples) {
    {
      JsonWriter w(os);
      w.field("event", "ts_sample").field("tick", s.tick);
      if (include_wall_time) w.field("t_ms", s.t_ms);
      for (const auto& [name, v] : s.snapshot.counters) {
        const std::uint64_t before = prev ? prev->snapshot.counter(name) : 0;
        w.field("c." + name, v);
        w.field("d." + name, v >= before ? v - before : 0);
      }
      for (const auto& [name, h] : s.snapshot.histograms) {
        const HistogramData d = interval_histogram(
            h, prev ? prev->snapshot.histogram(name) : nullptr);
        const std::string key = "h." + name + '.';
        w.field(key + "count", h.count)
            .field(key + "d_count", d.count)
            .field(key + "mean", d.mean())
            .field(key + "p50", d.quantile(0.50))
            .field(key + "p90", d.quantile(0.90))
            .field(key + "p99", d.quantile(0.99))
            .field(key + "p999", d.quantile(0.999))
            .field(key + "max", h.count ? h.max_seen : 0.0);
      }
    }
    os << '\n';
    prev = &s;
  }
}

namespace {

void write_stage_lines(std::ostream& os, const StageNode& node,
                       const std::string& prefix, unsigned depth,
                       unsigned threads) {
  const std::string path =
      prefix.empty() ? node.name : prefix + "/" + node.name;
  JsonWriter(os)
      .field("event", "stage")
      .field("path", path)
      .field("name", node.name)
      .field("depth", depth)
      .field("count", node.count)
      .field("total_us", node.total_us)
      .field("self_us", node.self_us)
      .field("threads", threads);
  os << '\n';
  for (const StageNode& c : node.children) {
    write_stage_lines(os, c, path, depth + 1, threads);
  }
}

}  // namespace

void write_stage_jsonl(std::ostream& os, const StageReport& report) {
  for (const StageNode& r : report.roots) {
    write_stage_lines(os, r, "", 0, report.threads);
  }
}

}  // namespace slcube::obs
