#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>

namespace slcube::obs {

// --- HistogramData ---------------------------------------------------------

HistogramData::HistogramData(std::vector<double> upper_bounds)
    : bounds(std::move(upper_bounds)), buckets(bounds.size() + 1, 0) {
  SLC_EXPECT_MSG(std::is_sorted(bounds.begin(), bounds.end()),
                 "histogram bounds must be ascending");
}

void HistogramData::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), v);
  ++buckets[static_cast<std::size_t>(it - bounds.begin())];
  if (count == 0) {
    min_seen = max_seen = v;
  } else {
    min_seen = std::min(min_seen, v);
    max_seen = std::max(max_seen, v);
  }
  ++count;
  sum += v;
}

void HistogramData::merge(const HistogramData& o) {
  if (o.count == 0) return;
  if (count == 0) {
    *this = o;
    return;
  }
  SLC_EXPECT_MSG(bounds == o.bounds,
                 "cannot merge histograms with different bucket bounds");
  for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] += o.buckets[i];
  count += o.count;
  sum += o.sum;
  min_seen = std::min(min_seen, o.min_seen);
  max_seen = std::max(max_seen, o.max_seen);
}

double HistogramData::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  // !(q > 0) catches NaN as well as q <= 0 — same clamped edge contract
  // as IntHistogram::quantile (NaN must not fall through to max_seen).
  if (!(q > 0.0)) return min_seen;
  if (q >= 1.0) return max_seen;
  const double target = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const std::uint64_t next = cum + buckets[i];
    if (static_cast<double>(next) >= target) {
      // Interpolate within the bucket, clamping its edges to the exact
      // extremes so the first/last (and overflow) buckets never report
      // a bound nothing ever reached.
      double lo = i == 0 ? min_seen : std::max(bounds[i - 1], min_seen);
      double hi = i < bounds.size() ? std::min(bounds[i], max_seen) : max_seen;
      if (hi < lo) hi = lo;
      double f = (target - static_cast<double>(cum)) /
                 static_cast<double>(buckets[i]);
      f = std::clamp(f, 0.0, 1.0);
      return lo + f * (hi - lo);
    }
    cum = next;
  }
  return max_seen;
}

std::vector<double> exponential_bounds(double base, double growth,
                                       std::size_t n) {
  SLC_EXPECT(base > 0.0 && growth > 1.0);
  std::vector<double> b(n);
  double v = base;
  for (std::size_t i = 0; i < n; ++i, v *= growth) b[i] = v;
  return b;
}

std::vector<double> linear_bounds(double start, double step, std::size_t n) {
  SLC_EXPECT(step > 0.0);
  std::vector<double> b(n);
  double v = start;
  for (std::size_t i = 0; i < n; ++i, v += step) b[i] = v;
  return b;
}

// --- Registry shard routing ------------------------------------------------

namespace detail {

struct MetricsShard {
  mutable std::mutex mutex;  ///< per-thread, so virtually uncontended
  std::vector<std::uint64_t> counters;
  std::vector<HistogramData> histograms;
  /// Set by the owning thread's exit hook; scrape() folds flagged shards
  /// into the registry's retired accumulators and drops them from the map.
  std::atomic<bool> retired{false};
};

}  // namespace detail

namespace {

std::atomic<std::uint64_t> next_registry_id{1};

/// Single-entry thread-local cache: the registry a thread used last. A
/// miss (different registry, or first touch) falls back to the locked
/// per-thread map in the registry itself. Keyed by the never-reused id so
/// a dangling pointer from a destroyed registry can never false-hit.
struct ShardCache {
  std::uint64_t registry_id = 0;
  void* shard = nullptr;
};
thread_local ShardCache tl_shard_cache;

/// Flags every shard this thread created as retired when the thread
/// exits. Holding shared_ptrs keeps the flag write valid whichever of
/// thread and registry dies first; a registry that is already gone just
/// never reads the flag.
struct ShardRetirer {
  std::vector<std::shared_ptr<detail::MetricsShard>> shards;
  ~ShardRetirer() {
    for (const auto& s : shards) s->retired.store(true);
  }
};
thread_local ShardRetirer tl_shard_retirer;

}  // namespace

Registry::Registry() : id_(next_registry_id.fetch_add(1)) {}

Registry::~Registry() {
  // Invalidate this thread's cache if it points into us; other threads'
  // caches die harmlessly (the id is never reused, so they can only miss).
  if (tl_shard_cache.registry_id == id_) tl_shard_cache = {};
}

detail::MetricsShard& Registry::local_shard() const {
  if (tl_shard_cache.registry_id == id_) {
    return *static_cast<detail::MetricsShard*>(tl_shard_cache.shard);
  }
  std::lock_guard lock(mutex_);
  auto& slot = shards_[std::this_thread::get_id()];
  if (slot && slot->retired.load()) {
    // The OS reused a dead thread's id. Preserve the dead shard's data,
    // then hand the new thread a fresh shard under the same key.
    fold_shard_locked(*slot);
    slot.reset();
  }
  if (!slot) {
    slot = std::make_shared<detail::MetricsShard>();
    slot->counters.resize(counter_names_.size(), 0);
    for (const auto& bounds : histogram_bounds_) {
      slot->histograms.emplace_back(bounds);
    }
    tl_shard_retirer.shards.push_back(slot);
  }
  tl_shard_cache = {id_, slot.get()};
  return *slot;
}

void Registry::fold_shard_locked(const detail::MetricsShard& shard) const {
  std::lock_guard shard_lock(shard.mutex);
  if (retired_counters_.size() < shard.counters.size()) {
    retired_counters_.resize(shard.counters.size(), 0);
  }
  for (std::size_t i = 0; i < shard.counters.size(); ++i) {
    retired_counters_[i] += shard.counters[i];
  }
  for (std::size_t i = 0; i < shard.histograms.size(); ++i) {
    if (i >= retired_histograms_.size()) {
      retired_histograms_.emplace_back(histogram_bounds_[i]);
    }
    retired_histograms_[i].merge(shard.histograms[i]);
  }
}

std::size_t Registry::live_shards() const {
  std::lock_guard lock(mutex_);
  return shards_.size();
}

// --- registration ----------------------------------------------------------

namespace {

std::uint32_t find_or_append(std::vector<std::string>& names,
                             std::string_view name) {
  for (std::uint32_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  names.emplace_back(name);
  return static_cast<std::uint32_t>(names.size() - 1);
}

}  // namespace

Counter Registry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  return Counter(this, find_or_append(counter_names_, name));
}

Histogram Registry::histogram(std::string_view name,
                              std::vector<double> bounds) {
  std::lock_guard lock(mutex_);
  const std::uint32_t idx = find_or_append(histogram_names_, name);
  if (idx == histogram_bounds_.size()) {
    histogram_bounds_.push_back(std::move(bounds));
  }
  return Histogram(this, idx);
}

// --- handle operations -----------------------------------------------------

void Counter::inc(std::uint64_t n) const noexcept {
  if (reg_ == nullptr) return;
  detail::MetricsShard& shard = reg_->local_shard();
  std::lock_guard lock(shard.mutex);
  if (idx_ >= shard.counters.size()) shard.counters.resize(idx_ + 1, 0);
  shard.counters[idx_] += n;
}

std::uint64_t Counter::value() const {
  if (reg_ == nullptr) return 0;
  std::uint64_t total = 0;
  std::lock_guard lock(reg_->mutex_);
  if (idx_ < reg_->retired_counters_.size()) {
    total += reg_->retired_counters_[idx_];
  }
  for (const auto& [tid, shard] : reg_->shards_) {
    std::lock_guard shard_lock(shard->mutex);
    if (idx_ < shard->counters.size()) total += shard->counters[idx_];
  }
  return total;
}

void Histogram::observe(double v) const noexcept {
  if (reg_ == nullptr) return;
  detail::MetricsShard& shard = reg_->local_shard();
  {
    std::lock_guard lock(shard.mutex);
    if (idx_ < shard.histograms.size()) {
      shard.histograms[idx_].observe(v);
      return;
    }
  }
  // Slow path: the shard predates this histogram's registration. Lock
  // order is registry before shard everywhere (scrape does the same).
  std::lock_guard reg_lock(reg_->mutex_);
  std::lock_guard lock(shard.mutex);
  for (std::size_t i = shard.histograms.size();
       i < reg_->histogram_bounds_.size(); ++i) {
    shard.histograms.emplace_back(reg_->histogram_bounds_[i]);
  }
  shard.histograms[idx_].observe(v);
}

HistogramData Histogram::snapshot() const {
  HistogramData out;
  if (reg_ == nullptr) return out;
  std::lock_guard lock(reg_->mutex_);
  out = HistogramData(reg_->histogram_bounds_[idx_]);
  if (idx_ < reg_->retired_histograms_.size()) {
    out.merge(reg_->retired_histograms_[idx_]);
  }
  for (const auto& [tid, shard] : reg_->shards_) {
    std::lock_guard shard_lock(shard->mutex);
    if (idx_ < shard->histograms.size()) out.merge(shard->histograms[idx_]);
  }
  return out;
}

// --- scrape ----------------------------------------------------------------

MetricsSnapshot Registry::scrape() const {
  MetricsSnapshot snap;
  std::lock_guard lock(mutex_);
  // Dead threads can't write again: fold their shards into the retired
  // accumulators so shards_ stays bounded by the live thread count.
  for (auto it = shards_.begin(); it != shards_.end();) {
    if (it->second->retired.load()) {
      fold_shard_locked(*it->second);
      it = shards_.erase(it);
    } else {
      ++it;
    }
  }
  snap.counters.reserve(counter_names_.size());
  for (const auto& name : counter_names_) snap.counters.emplace_back(name, 0);
  for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
    snap.histograms.emplace_back(histogram_names_[i],
                                 HistogramData(histogram_bounds_[i]));
  }
  for (std::size_t i = 0; i < retired_counters_.size(); ++i) {
    snap.counters[i].second += retired_counters_[i];
  }
  for (std::size_t i = 0; i < retired_histograms_.size(); ++i) {
    snap.histograms[i].second.merge(retired_histograms_[i]);
  }
  for (const auto& [tid, shard] : shards_) {
    std::lock_guard shard_lock(shard->mutex);
    for (std::size_t i = 0; i < shard->counters.size(); ++i) {
      snap.counters[i].second += shard->counters[i];
    }
    for (std::size_t i = 0; i < shard->histograms.size(); ++i) {
      snap.histograms[i].second.merge(shard->histograms[i]);
    }
  }
  return snap;
}

// --- snapshot lookups ------------------------------------------------------

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

const HistogramData* MetricsSnapshot::histogram(std::string_view name) const {
  for (const auto& [n, v] : histograms) {
    if (n == name) return &v;
  }
  return nullptr;
}

}  // namespace slcube::obs
