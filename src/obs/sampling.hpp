// slcube::obs — tail-sampled tracing for the serving layer: SamplingSink
// keeps full-fidelity tracing "always on" at a cost the hot path can
// afford. Every route pays for one fixed-size breadcrumb in a per-thread
// ring; the full causal event chain is retained (forwarded downstream)
// only when the route turns out to be interesting:
//
//   * anomalies — drops, H+2 detours, misroutes, stale-epoch decisions
//     (tail-based: the decision is made once the outcome is known);
//   * a deterministic 1-in-N head sample (route_id % head_every == 0) as
//     the unbiased control against which the anomalous tail is read.
//
// One integration path, for producers whose routes re-run bit-for-bit
// (workload::ServiceScript, or any serve against immutable snapshots):
// serve untraced and offer() the summary; only when the route promotes,
// re-serve it traced and hand the regenerated chain to replay_chain().
// Unpromoted routes — the overwhelming majority — never construct an
// event, and a forwarded chain is whole by construction.
//
// Promotion is bounded by TraceBudget, a self-measuring token bucket:
// the sink times its own downstream forwarding and spends those measured
// nanoseconds against a refill of wall-elapsed-time x overhead_fraction.
// When the bucket is empty the route sheds to breadcrumb-only — and the
// shed is *counted* (per promotion reason), never silent, so audit
// reconciliation can state exactly what the trace does not contain.
//
// Determinism contract (mirrors the telemetry/sweep-engine contract):
// with an unlimited budget the promotion decision is a pure function of
// the route summary, so the promoted route *set* (promoted_digest(), an
// order-independent fold) is bit-identical at any thread count. The
// wall-clock budget trades that invariance for live-overhead control;
// benches gate the deterministic configuration.
//
// Concurrency contract: offer / replay_chain / on_event may be called
// from any number of threads. Breadcrumbs and counters live in a
// thread-owned shard written without locking; on_event forwards
// non-route events (epoch_publish, churn) straight downstream. Promoted
// chains are forwarded under one internal mutex as an atomic burst, so
// the downstream sink sees whole chains even when it is a shared
// LockedJsonlSink; the downstream sink must itself be thread-safe.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace slcube::obs {

/// Why a route's full chain was (or would have been) retained.
enum class PromoteReason : std::uint8_t {
  kNone = 0,  ///< breadcrumb only
  kHead,      ///< deterministic 1-in-N control sample
  kDrop,      ///< route dropped (lost to a ground fault)
  kDetour,    ///< delivered on the H+2 spare path
  kStale,     ///< decision epoch older than ground epoch
  kMisroute,  ///< diagnosis-attributed misroute
};
inline constexpr std::size_t kNumPromoteReasons = 6;
[[nodiscard]] const char* to_string(PromoteReason r);

/// Self-measuring token bucket bounding promotion overhead. Tokens are
/// nanoseconds of downstream forwarding; refill accrues at
/// overhead_fraction of wall time elapsed since the last refill, capped
/// at burst_ns so idle periods cannot bank unbounded credit.
class TraceBudget {
 public:
  struct Options {
    /// Always admit (still counts admissions): the deterministic mode
    /// used when promotion decisions must be interleaving-free.
    bool unlimited = true;
    /// Fraction of wall time promotion may consume (0.05 = 5%).
    double overhead_fraction = 0.05;
    /// Token cap and initial credit, in nanoseconds.
    std::uint64_t burst_ns = 2'000'000;
  };

  TraceBudget() : TraceBudget(Options()) {}
  explicit TraceBudget(Options opt);

  /// True when the route may promote. Admit-then-settle: one oversized
  /// chain may overdraw the bucket by a single route; the debt is repaid
  /// before the next admission.
  [[nodiscard]] bool try_admit();
  /// Record the measured cost of an admitted promotion.
  void settle(std::uint64_t spent_ns);
  /// Test/tuning hook: grant extra credit without waiting on the clock.
  void credit_ns(std::uint64_t ns);

  struct Stats {
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;      ///< admissions refused
    std::uint64_t spent_ns = 0;  ///< settled forwarding time
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] bool unlimited() const { return opt_.unlimited; }

 private:
  void refill();

  Options opt_;
  mutable std::mutex mutex_;  ///< promotion-rate path; never on breadcrumbs
  std::int64_t tokens_ns_ = 0;
  std::uint64_t last_refill_ns_ = 0;  ///< steady-clock ns at last refill
  std::uint64_t admitted_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t spent_ns_ = 0;
};

/// The fixed-size per-route record every route writes. 16 bytes.
struct Breadcrumb {
  std::uint32_t route_id_lo = 0;  ///< low 32 bits of the route id
  std::uint32_t decision_epoch_lo = 0;
  std::uint16_t hops = 0;
  std::uint8_t status = 0;  ///< caller's status code (core::RouteStatus)
  std::uint8_t reason = 0;  ///< PromoteReason decided for this route
  std::uint8_t flags = 0;   ///< kFlagStale | kFlagPromoted | kFlagShed
  static constexpr std::uint8_t kFlagStale = 1;
  static constexpr std::uint8_t kFlagPromoted = 2;
  static constexpr std::uint8_t kFlagShed = 4;  ///< wanted promotion, no budget
};
static_assert(sizeof(Breadcrumb) == 16);

/// Breadcrumbs each thread's ring keeps (oldest evicted, counted): 128 KiB
/// per shard, so steady-state crumb writes stay cache-resident instead of
/// streaming through LLC and evicting the serving layer's routing tables
/// — measurably cheaper per route than a larger ring despite wrapping
/// sooner.
inline constexpr std::size_t kBreadcrumbCapacity = 8192;

/// What the caller knows about a finished route; the sampler's entire
/// promotion decision is a pure function of this struct (plus the head
/// modulus).
struct RouteSummary {
  std::uint64_t route_id = 0;
  std::uint64_t decision_epoch = 0;
  std::uint64_t ground_epoch = 0;
  const char* status = "";       ///< e.g. to_string(core::RouteStatus)
  std::uint8_t status_code = 0;  ///< small code for breadcrumbs/digest
  unsigned hops = 0;
  bool dropped = false;
  bool detour = false;
  bool misroute = false;
  double latency_us = -1.0;  ///< < 0 = not measured; goes to RouteSummaryEvent
  [[nodiscard]] bool stale() const { return ground_epoch > decision_epoch; }
};

struct SamplingConfig {
  /// Promote route ids divisible by this as the unbiased control;
  /// 0 disables head sampling.
  std::uint32_t head_every = 1024;
  /// Also forward a RouteSummaryEvent (promoted=false) for routes that
  /// stay breadcrumb-only, making the downstream stream self-describing
  /// at one event per route. Off for the <5%-overhead configuration.
  bool emit_breadcrumb_summaries = false;
  TraceBudget::Options budget;
};

/// See the file comment. `downstream` receives passthrough events,
/// promoted chains, and RouteSummaryEvents; it must be thread-safe when
/// the sampler is shared across threads.
class SamplingSink final : public TraceSink {
 public:
  explicit SamplingSink(TraceSink* downstream, SamplingConfig config = {});
  ~SamplingSink() override;

  /// Forwards a non-route event (epoch_publish, churn) straight
  /// downstream, counted as passthrough.
  void on_event(const TraceEvent& ev) override;

  struct Offer {
    PromoteReason reason = PromoteReason::kNone;
    /// True when the route promoted (budget admitted): the caller must
    /// regenerate the chain and call replay_chain().
    bool promoted = false;
  };
  /// Decide the route's promotion, write its breadcrumb and count it.
  /// Unpromoted routes cost no lock and no event.
  [[nodiscard]] Offer offer(const RouteSummary& summary);

  /// Forward a regenerated chain + its summary downstream as one atomic
  /// burst (and settle the budget with the measured cost). Only for
  /// routes offer() promoted.
  void replay_chain(const RouteSummary& summary, PromoteReason reason,
                    std::span<const TraceEvent> chain);

  struct Stats {
    std::uint64_t routes = 0;
    std::uint64_t promoted = 0;         ///< full chains forwarded
    std::uint64_t breadcrumb_only = 0;  ///< routes with no chain forwarded
    std::uint64_t shed_routes = 0;      ///< wanted promotion, budget refused
    /// Chain events those sheds dropped, counted as hops + 2 per route
    /// (source decision + hops + terminal): a shed chain is never built.
    std::uint64_t shed_events = 0;
    /// Always 0: a replayed chain is never truncated. Kept while
    /// perfbench/sampled_q14.cpp reads it.
    std::uint64_t overflow_routes = 0;
    std::uint64_t passthrough_events = 0;
    std::uint64_t breadcrumbs_dropped = 0;  ///< ring evictions
    std::uint64_t promoted_by_reason[kNumPromoteReasons] = {};
    std::uint64_t shed_by_reason[kNumPromoteReasons] = {};
  };
  /// Merged over all thread shards. Safe to call concurrently with
  /// serving; counters for a route become visible at its offer().
  [[nodiscard]] Stats stats() const;

  /// Order-independent fold (xor of a mix of id/status/hops/reason) over
  /// the promoted route set — the thread-invariance fingerprint gated in
  /// BENCH_SAMPLING.json. Deterministic-mode runs must produce the same
  /// digest at any thread count.
  [[nodiscard]] std::uint64_t promoted_digest() const;

  /// All retained breadcrumbs, grouped by shard in ring order.
  [[nodiscard]] std::vector<Breadcrumb> breadcrumbs() const;

  [[nodiscard]] TraceBudget& budget() { return budget_; }

  /// The promotion rule as a pure function (exposed for tests): why
  /// would `s` promote, ignoring the budget?
  [[nodiscard]] static PromoteReason classify(const RouteSummary& s,
                                              const SamplingConfig& config);

 private:
  struct Shard;
  Shard& local_shard();
  [[nodiscard]] std::vector<const Shard*> all_shards() const;

  SamplingConfig config_;
  TraceSink* downstream_;
  TraceBudget budget_;
  const std::uint64_t id_;  ///< never-reused, keys the thread-local cache
  mutable std::mutex mutex_;  ///< shard map + promotion burst ordering
  mutable std::map<std::thread::id, std::unique_ptr<Shard>> shards_;
};

}  // namespace slcube::obs
