#include "obs/telemetry.hpp"

#include <algorithm>
#include <ostream>
#include <string>

#include "obs/jsonl.hpp"
#include "obs/profiler.hpp"

namespace slcube::obs {

TimeSeriesRecorder::TimeSeriesRecorder(Registry& registry,
                                       std::size_t capacity)
    : registry_(registry), capacity_(capacity) {}

void TimeSeriesRecorder::tick() {
  // Scrape outside the ring lock: scrape() takes the registry's own locks
  // and may be slow relative to a deque push.
  MetricsSnapshot snap = registry_.scrape();
  std::lock_guard lock(mutex_);
  ring_.push_back({total_ticks_++, std::move(snap)});
  while (ring_.size() > capacity_) ring_.pop_front();
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
                            const std::vector<TimeSample>& samples) {
  const TimeSample* prev = nullptr;
  for (const TimeSample& s : samples) {
    {
      JsonWriter w(os);
      w.field("event", "ts_sample").field("tick", s.tick);
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
