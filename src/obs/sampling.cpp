#include "obs/sampling.hpp"

#include <atomic>
#include <chrono>
#include <cstring>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace slcube::obs {

const char* to_string(PromoteReason r) {
  switch (r) {
    case PromoteReason::kNone:
      return "none";
    case PromoteReason::kHead:
      return "head";
    case PromoteReason::kDrop:
      return "drop";
    case PromoteReason::kDetour:
      return "detour";
    case PromoteReason::kStale:
      return "stale";
    case PromoteReason::kMisroute:
      return "misroute";
  }
  SLC_UNREACHABLE("bad PromoteReason");
}

// --- TraceBudget -----------------------------------------------------------

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

TraceBudget::TraceBudget(Options opt) : opt_(opt) {
  SLC_EXPECT(opt_.overhead_fraction >= 0.0);
  tokens_ns_ = static_cast<std::int64_t>(opt_.burst_ns);
  last_refill_ns_ = steady_ns();
}

void TraceBudget::refill() {
  const std::uint64_t now = steady_ns();
  if (now <= last_refill_ns_) return;
  const auto add = static_cast<std::int64_t>(
      static_cast<double>(now - last_refill_ns_) * opt_.overhead_fraction);
  last_refill_ns_ = now;
  const auto cap =
      std::max(tokens_ns_, static_cast<std::int64_t>(opt_.burst_ns));
  tokens_ns_ = std::min(tokens_ns_ + add, cap);
}

bool TraceBudget::try_admit() {
  const std::scoped_lock lock(mutex_);
  if (opt_.unlimited) {
    ++admitted_;
    return true;
  }
  refill();
  if (tokens_ns_ > 0) {
    ++admitted_;
    return true;
  }
  ++shed_;
  return false;
}

void TraceBudget::settle(std::uint64_t spent_ns) {
  const std::scoped_lock lock(mutex_);
  spent_ns_ += spent_ns;
  if (!opt_.unlimited) tokens_ns_ -= static_cast<std::int64_t>(spent_ns);
}

void TraceBudget::credit_ns(std::uint64_t ns) {
  const std::scoped_lock lock(mutex_);
  tokens_ns_ += static_cast<std::int64_t>(ns);
}

TraceBudget::Stats TraceBudget::stats() const {
  const std::scoped_lock lock(mutex_);
  return Stats{admitted_, shed_, spent_ns_};
}

// --- SamplingSink ----------------------------------------------------------

namespace {

std::atomic<std::uint64_t> next_sampler_id{1};

/// 4-byte test-and-test-and-set lock. Shard state is owner-written on
/// every route and only briefly inspected by collector threads (stats(),
/// breadcrumbs(), promoted_digest()), so the uncontended path — one
/// acquire exchange in, one release store out — is what the hot path
/// pays; std::mutex's 40 bytes and second RMW on unlock are measurable
/// at the per-route scale the overhead budget is written in.
class ShardLock {
 public:
  void lock() noexcept {
    while (flag_.exchange(true, std::memory_order_acquire)) {
      while (flag_.load(std::memory_order_relaxed)) {
      }
    }
  }
  void unlock() noexcept { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> flag_{false};
};

/// Single-entry thread-local cache, keyed by the sink's never-reused id
/// so a pointer into a destroyed sampler can only miss (same idiom as
/// the metrics registry's shard cache).
struct SamplerCache {
  std::uint64_t sink_id = 0;
  void* shard = nullptr;
};
thread_local SamplerCache tl_sampler_cache;

std::uint64_t digest_mix(std::uint64_t route_id, std::uint8_t status_code,
                         unsigned hops, PromoteReason reason) {
  const std::uint64_t key =
      route_id * 0x9e3779b97f4a7c15ull ^
      (static_cast<std::uint64_t>(status_code) << 32) ^
      (static_cast<std::uint64_t>(hops & 0xFFFFu) << 40) ^
      (static_cast<std::uint64_t>(reason) << 56);
  return SplitMix64(key).next();
}

/// Build the 16-byte per-route record.
Breadcrumb make_breadcrumb(const RouteSummary& summary, PromoteReason reason,
                           bool promoted, bool shed) {
  Breadcrumb crumb = Breadcrumb();  // value-initialized: padding zeroed too
  crumb.route_id_lo = static_cast<std::uint32_t>(summary.route_id);
  crumb.decision_epoch_lo = static_cast<std::uint32_t>(summary.decision_epoch);
  crumb.hops = static_cast<std::uint16_t>(std::min(summary.hops, 0xFFFFu));
  crumb.status = summary.status_code;
  crumb.reason = static_cast<std::uint8_t>(reason);
  crumb.flags = static_cast<std::uint8_t>(
      (summary.stale() ? Breadcrumb::kFlagStale : 0) |
      (promoted ? Breadcrumb::kFlagPromoted : 0) |
      (shed ? Breadcrumb::kFlagShed : 0));
  return crumb;
}

RouteSummaryEvent summary_event(const RouteSummary& summary,
                                PromoteReason reason, bool promoted) {
  return RouteSummaryEvent{summary.route_id,     summary.decision_epoch,
                           summary.ground_epoch, summary.status,
                           summary.hops,         summary.latency_us,
                           promoted,             to_string(reason)};
}

/// Owner-only increment of a single-writer relaxed counter: a plain
/// load+store pair, not a fetch_add — there is nothing to contend with.
inline void bump(std::atomic<std::uint64_t>& counter) {
  counter.store(counter.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
}

}  // namespace

struct SamplingSink::Shard {
  Shard() : ring(2 * kBreadcrumbCapacity) {}

  /// Ring write; owner thread only, no lock — the slot's two words are
  /// relaxed atomic stores and ring_seen's release publish lets readers
  /// see a complete prefix. The wrap cursor is maintained incrementally;
  /// a 64-bit modulo per route is measurable against the overhead budget.
  void push(const Breadcrumb& crumb) {
    std::uint64_t words[2];
    static_assert(sizeof(words) == sizeof(Breadcrumb));
    std::memcpy(words, &crumb, sizeof(words));
    ring[2 * ring_pos].store(words[0], std::memory_order_relaxed);
    ring[2 * ring_pos + 1].store(words[1], std::memory_order_relaxed);
    if (++ring_pos == kBreadcrumbCapacity) ring_pos = 0;
    ring_seen.store(ring_seen.load(std::memory_order_relaxed) + 1,
                    std::memory_order_release);
  }

  // Single-writer hot state: the owner thread updates these with relaxed
  // atomic stores on every route (no RMW — the owner is the only
  // writer); collector threads (stats(), breadcrumbs()) read them
  // concurrently without taking `lock`. A concurrent reader gets a
  // racy-but-bounded snapshot — each 8-byte half of a crumb is atomic,
  // so a slot being overwritten can at worst mix two real crumbs, never
  // expose garbage — and a quiescent read (post-join, as in tests and
  // the bench collectors) is exact.
  std::atomic<std::uint64_t> routes{0};
  std::atomic<std::uint64_t> breadcrumb_only{0};
  std::atomic<std::uint64_t> ring_seen{0};
  std::uint64_t ring_pos = 0;  ///< owner-only wrap cursor (== ring_seen % cap)
  std::vector<std::atomic<std::uint64_t>> ring;  ///< two words per crumb
  // Guarded by `lock`: promotion-path state (owner writes on the rare
  // promoted or shed routes and on passthrough events; collectors read).
  // The routes / breadcrumb_only / breadcrumbs_dropped fields of `stats`
  // are unused here — they live in the atomics above and are derived at
  // collection time.
  mutable ShardLock lock;
  std::uint64_t digest = 0;
  Stats stats;
};

SamplingSink::SamplingSink(TraceSink* downstream, SamplingConfig config)
    : config_(config),
      downstream_(downstream),
      budget_(config.budget),
      id_(next_sampler_id.fetch_add(1)) {
  SLC_EXPECT(downstream_ != nullptr);
}

SamplingSink::~SamplingSink() {
  if (tl_sampler_cache.sink_id == id_) tl_sampler_cache = {};
}

SamplingSink::Shard& SamplingSink::local_shard() {
  if (tl_sampler_cache.sink_id == id_) {
    return *static_cast<Shard*>(tl_sampler_cache.shard);
  }
  const std::scoped_lock lock(mutex_);
  auto& slot = shards_[std::this_thread::get_id()];
  if (!slot) slot = std::make_unique<Shard>();
  tl_sampler_cache = {id_, slot.get()};
  return *slot;
}

std::vector<const SamplingSink::Shard*> SamplingSink::all_shards() const {
  const std::scoped_lock lock(mutex_);
  std::vector<const Shard*> shards;
  shards.reserve(shards_.size());
  for (const auto& [tid, shard] : shards_) shards.push_back(shard.get());
  return shards;
}

void SamplingSink::on_event(const TraceEvent& ev) {
  Shard& shard = local_shard();
  {
    const std::scoped_lock lock(shard.lock);
    ++shard.stats.passthrough_events;
  }
  downstream_->on_event(ev);
}

SamplingSink::Offer SamplingSink::offer(const RouteSummary& summary) {
  Shard& shard = local_shard();
  const PromoteReason reason = classify(summary, config_);
  bool promoted = false;
  bool shed = false;
  if (reason != PromoteReason::kNone) {
    promoted = budget_.try_admit();
    shed = !promoted;
    const auto r = static_cast<std::size_t>(reason);
    const std::scoped_lock lock(shard.lock);
    Stats& st = shard.stats;
    if (promoted) {
      ++st.promoted;
      ++st.promoted_by_reason[r];
      shard.digest ^= digest_mix(summary.route_id, summary.status_code,
                                 summary.hops, reason);
    } else {
      ++st.shed_routes;
      ++st.shed_by_reason[r];
      st.shed_events += summary.hops + 2;
    }
  }
  // What ~99% of routes pay: two single-writer counter bumps and an
  // atomic ring write, no lock.
  bump(shard.routes);
  if (!promoted) {
    bump(shard.breadcrumb_only);
    if (config_.emit_breadcrumb_summaries) {
      downstream_->on_event(summary_event(summary, reason, false));
    }
  }
  shard.push(make_breadcrumb(summary, reason, promoted, shed));
  return Offer{reason, promoted};
}

void SamplingSink::replay_chain(const RouteSummary& summary,
                                PromoteReason reason,
                                std::span<const TraceEvent> chain) {
  const std::uint64_t t0 = budget_.unlimited() ? 0 : steady_ns();
  {
    // One burst per promotion: downstream sees whole chains even when
    // several threads promote at once.
    const std::scoped_lock burst(mutex_);
    for (const TraceEvent& ev : chain) downstream_->on_event(ev);
    downstream_->on_event(summary_event(summary, reason, true));
  }
  if (!budget_.unlimited()) budget_.settle(steady_ns() - t0);
}

PromoteReason SamplingSink::classify(const RouteSummary& s,
                                     const SamplingConfig& config) {
  // Most-specific anomaly wins: a misroute is usually also a drop, and a
  // drop under churn is usually also stale — the reason names the
  // sharpest cause so per-reason tallies stay interpretable.
  if (s.misroute) return PromoteReason::kMisroute;
  if (s.dropped) return PromoteReason::kDrop;
  if (s.detour) return PromoteReason::kDetour;
  if (s.stale()) return PromoteReason::kStale;
  if (config.head_every != 0 && s.route_id % config.head_every == 0) {
    return PromoteReason::kHead;
  }
  return PromoteReason::kNone;
}

SamplingSink::Stats SamplingSink::stats() const {
  Stats out;
  for (const Shard* shard : all_shards()) {
    out.routes += shard->routes.load(std::memory_order_relaxed);
    out.breadcrumb_only +=
        shard->breadcrumb_only.load(std::memory_order_relaxed);
    const std::uint64_t seen = shard->ring_seen.load(std::memory_order_acquire);
    out.breadcrumbs_dropped +=
        seen > kBreadcrumbCapacity ? seen - kBreadcrumbCapacity : 0;
    const std::scoped_lock lock(shard->lock);
    const Stats& st = shard->stats;
    out.promoted += st.promoted;
    out.shed_routes += st.shed_routes;
    out.shed_events += st.shed_events;
    out.passthrough_events += st.passthrough_events;
    for (std::size_t r = 0; r < kNumPromoteReasons; ++r) {
      out.promoted_by_reason[r] += st.promoted_by_reason[r];
      out.shed_by_reason[r] += st.shed_by_reason[r];
    }
  }
  return out;
}

std::uint64_t SamplingSink::promoted_digest() const {
  std::uint64_t digest = 0;
  for (const Shard* shard : all_shards()) {
    const std::scoped_lock lock(shard->lock);
    digest ^= shard->digest;
  }
  return digest;
}

std::vector<Breadcrumb> SamplingSink::breadcrumbs() const {
  std::vector<Breadcrumb> out;
  constexpr std::uint64_t cap = kBreadcrumbCapacity;
  for (const Shard* shard : all_shards()) {
    // Lock-free snapshot: acquire on ring_seen pairs with the owner's
    // release publish, so the first min(seen, cap) slots are complete.
    // Reading concurrently with an owner that is still writing yields a
    // racy-but-bounded view (see the Shard comment); quiescent reads —
    // the supported mode — are exact.
    const std::uint64_t seen = shard->ring_seen.load(std::memory_order_acquire);
    const std::uint64_t count = std::min(seen, cap);
    const std::uint64_t head = seen <= cap ? 0 : seen % cap;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t slot = (head + i) % cap;
      std::uint64_t words[2] = {
          shard->ring[2 * slot].load(std::memory_order_relaxed),
          shard->ring[2 * slot + 1].load(std::memory_order_relaxed)};
      Breadcrumb crumb;
      std::memcpy(&crumb, words, sizeof(crumb));
      out.push_back(crumb);
    }
  }
  return out;
}

}  // namespace slcube::obs
