// slcube::obs — a per-object metrics registry: named counters and
// fixed-bucket histograms. Writes go to cheap thread-local shards (one
// uncontended mutex per thread); scrape() merges every shard into an
// immutable snapshot. This replaces the ad-hoc counter structs that used
// to live inside individual subsystems (sim::NetworkStats is now a
// scrape view over one of these).
//
// Lifetime contract: handles (Counter/Histogram) are thin
// {registry, index} pairs and must not outlive their Registry. Metric
// names are registered idempotently — asking twice for the same name
// returns the same slot, so independent modules can share a metric.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/contracts.hpp"

namespace slcube::obs {

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper bounds;
/// one extra overflow bucket catches everything above the last bound.
/// A plain value type so it can be used standalone (per-chunk latency
/// accumulators in the sweep driver) as well as inside the registry.
/// The exact min/max observed are tracked alongside the buckets so
/// quantiles interpolate instead of snapping to bucket bounds — in
/// particular the overflow bucket reports real values, not the last bound.
struct HistogramData {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 slots
  std::uint64_t count = 0;
  double sum = 0.0;
  double min_seen = 0.0;  ///< meaningful only when count > 0
  double max_seen = 0.0;  ///< meaningful only when count > 0

  HistogramData() = default;
  explicit HistogramData(std::vector<double> upper_bounds);

  void observe(double v) noexcept;
  void merge(const HistogramData& o);

  [[nodiscard]] double mean() const noexcept {
    return count ? sum / static_cast<double>(count) : 0.0;
  }
  /// Interpolated q-quantile: linear within the target bucket, with the
  /// bucket edges clamped to the exact min/max observed, so q=0 is the
  /// min, q=1 is the max, and the overflow bucket never reports an
  /// invented bound. Edges are defined, never trapped: an empty
  /// histogram yields 0, and q is clamped into [0, 1] (NaN to 0).
  [[nodiscard]] double quantile(double q) const noexcept;
};

/// `n` exponentially growing upper bounds: base, base*growth, ... —
/// the standard ladder for latency histograms.
[[nodiscard]] std::vector<double> exponential_bounds(double base,
                                                     double growth,
                                                     std::size_t n);

/// `n` evenly spaced upper bounds: start, start+step, ... — for small
/// integral domains like hop counts.
[[nodiscard]] std::vector<double> linear_bounds(double start, double step,
                                                std::size_t n);

class Registry;

/// Monotonically increasing counter.
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1) const noexcept;
  [[nodiscard]] std::uint64_t value() const;  ///< summed over all shards

 private:
  friend class Registry;
  Counter(Registry* reg, std::uint32_t idx) : reg_(reg), idx_(idx) {}
  Registry* reg_ = nullptr;
  std::uint32_t idx_ = 0;
};

/// Sharded fixed-bucket histogram.
class Histogram {
 public:
  Histogram() = default;
  void observe(double v) const noexcept;
  [[nodiscard]] HistogramData snapshot() const;  ///< merged over shards

 private:
  friend class Registry;
  Histogram(Registry* reg, std::uint32_t idx) : reg_(reg), idx_(idx) {}
  Registry* reg_ = nullptr;
  std::uint32_t idx_ = 0;
};

/// Everything a registry knew at one scrape, by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, HistogramData>> histograms;

  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  [[nodiscard]] const HistogramData* histogram(std::string_view name) const;
};

namespace detail {
struct MetricsShard;  ///< one thread's private slice of a Registry
}  // namespace detail

class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Idempotent registration: the same name always maps to one slot.
  [[nodiscard]] Counter counter(std::string_view name);
  [[nodiscard]] Histogram histogram(std::string_view name,
                                    std::vector<double> bounds);

  [[nodiscard]] MetricsSnapshot scrape() const;

  /// Shards still owned by the per-thread map (dead-thread shards are
  /// folded into a retired accumulator by scrape(), so this stays bounded
  /// by the number of *live* writer threads, not the historical total).
  [[nodiscard]] std::size_t live_shards() const;

 private:
  friend class Counter;
  friend class Histogram;

  [[nodiscard]] detail::MetricsShard& local_shard() const;
  /// Merge one shard's data into the retired accumulators. Caller holds
  /// mutex_; takes the shard's own mutex.
  void fold_shard_locked(const detail::MetricsShard& shard) const;

  const std::uint64_t id_;  ///< never-reused registry identity
  mutable std::mutex mutex_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> histogram_names_;
  std::vector<std::vector<double>> histogram_bounds_;
  /// shared_ptr so a thread-exit retirer can keep its shard alive past
  /// registry teardown (either side may die first).
  mutable std::map<std::thread::id, std::shared_ptr<detail::MetricsShard>>
      shards_;
  /// Data from dead-thread shards, folded in by scrape().
  mutable std::vector<std::uint64_t> retired_counters_;
  mutable std::vector<HistogramData> retired_histograms_;
};

}  // namespace slcube::obs
