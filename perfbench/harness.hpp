// perfbench harness: clocks, slice statistics, the span recorder used by
// the traced pass, the seeded churn script, and the result record every
// workload fills in. Everything here belongs to the benchmark, not to the
// program under test: the program is only ever entered through its public
// functions, and each call is timed from this side of the boundary.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "core/egs_oracle.hpp"
#include "fault/fault_set.hpp"
#include "fault/link_fault_set.hpp"
#include "svc/serve.hpp"
#include "topology/hypercube.hpp"

namespace perfbench {

using namespace slcube;

// ---------------------------------------------------------------------------
// Clock and statistics

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// A fixed few-microsecond computation, timed on its own. This host's cores
/// run at (at least) two speeds that switch every few milliseconds, as the
/// machine's other tenants come and go; the canary's duration says which
/// speed the calling thread has right now.
[[nodiscard]] double canary_ns();

/// Route latency is timed on every kSampleEvery-th route (the rest run
/// without clock reads between them) where routes are short.
inline constexpr std::uint64_t kSampleEvery = 8;

/// One thread's timed phase, cut into short slices (about a millisecond of
/// work each). Every slice is bracketed by two canaries run outside its
/// clock. Only slices whose canaries both ran at full speed are reported
/// (see SliceSummary::of), so the figures do not depend on how much of a run the
/// host happened to slow down. Operations are timed one by one only for
/// latency samples; a slice's rate comes from its own clock.
class SliceMeter {
 public:
  /// Keeps up to `route_samples` route and `event_samples` writer-call
  /// latencies. The buffers are allocated and touched up front, so the
  /// harness's share of peak_rss_mb does not depend on how many operations
  /// a run completes; samples past the capacity are not kept.
  explicit SliceMeter(std::size_t route_samples = std::size_t{1} << 20,
                      std::size_t event_samples = std::size_t{1} << 15)
      : route_ns_(route_samples), event_ns_(event_samples) {
    slices_.reserve(std::size_t{1} << 16);
  }

  void begin() {
    routes_begin_ = routes_kept_;
    events_begin_ = events_kept_;
    canary_ = canary_ns();
    t0_ = now_ns();
  }
  /// Start a new group of slices: the thread has just moved to another
  /// CPU. The slice that follows runs on cold caches; close it with drop().
  void next_group() { ++group_; }
  /// Close the slice without recording it or its samples.
  void drop() {
    routes_kept_ = routes_begin_;
    events_kept_ = events_begin_;
  }
  void route_sample(double ns) {
    if (routes_kept_ < route_ns_.size()) {
      route_ns_[routes_kept_++] = static_cast<float>(ns);
    }
  }
  void event_sample(double ns) {
    if (events_kept_ < event_ns_.size()) {
      event_ns_[events_kept_++] = static_cast<float>(ns);
    }
  }
  /// Close the slice: `routes` routes and `events` churn events ran in it.
  void end(std::uint64_t routes, std::uint64_t events = 0);

 private:
  friend struct SliceSummary;
  struct Slice {
    double seconds = 0.0;
    std::uint64_t routes = 0;
    std::uint64_t events = 0;
    double canary = 0.0;  ///< the slower of the two bracketing canaries
    std::size_t group = 0;
    std::size_t route_end = 0;
    std::size_t event_end = 0;
  };
  double canary_ = 0.0;
  std::int64_t t0_ = 0;
  std::size_t group_ = 0;
  std::vector<Slice> slices_;
  std::vector<float> route_ns_;
  std::vector<float> event_ns_;
  std::size_t routes_kept_ = 0;
  std::size_t events_kept_ = 0;
  std::size_t routes_begin_ = 0;
  std::size_t events_begin_ = 0;
};

/// Rates and latencies over the full-speed slices of one or more meters
/// that ran at the same time (one per thread; rates add up). Route
/// latency quantiles are taken within each group (one thread on one CPU)
/// and averaged over the groups: pooled over every placement, a run's
/// latencies form a mixture whose median can sit in a gap between modes
/// (routes of different hop counts, threads on near or far cores) and
/// jump between runs; the average of per-group medians does not.
struct SliceSummary {
  double routes_per_s = 0.0;
  double events_per_s = 0.0;
  double route_p50_us = 0.0;
  double route_p99_us = 0.0;
  double event_p50_us = 0.0;
  double event_p99_us = 0.0;
  std::uint64_t route_samples = 0;
  std::uint64_t event_samples = 0;
  std::size_t fast_slices = 0;
  std::size_t slices = 0;
  std::size_t groups = 0;  ///< groups with enough samples for a p99
  std::vector<double> canary_quartiles;  ///< p01, p25, p50, p75, p99 (ns)

  /// A slice is full-speed when its slower canary is within 20% of the
  /// fastest canaries of the run (their 1st percentile). With fewer than
  /// 20 such slices every slice is used.
  static SliceSummary of(const std::vector<const SliceMeter*>& meters);
  [[nodiscard]] std::string describe() const;
};

/// The CPUs this process may run on, read once on the main thread before
/// any thread is moved.
[[nodiscard]] const std::vector<int>& allowed_cpus();
/// Pin the calling thread to allowed CPU `k` (mod their number). Timed
/// threads move every few dozen milliseconds: a thread that stays on one
/// CPU inherits whatever the host is doing on that core for the whole
/// run, and on this host that differs from core to core and over time.
void move_to_cpu(std::size_t k);
/// Let the calling thread run on any allowed CPU again.
void unpin();
/// The CPU for thread `t` of `threads` at rotation step `step`: thread 0
/// walks the CPUs in order, the others at offsets that cycle too, so every
/// pairing of CPUs comes up.
[[nodiscard]] std::size_t rotation_cpu(std::size_t step, std::size_t t);
/// Slices between two moves of a timed thread.
inline constexpr std::uint64_t kSlicesPerMove = 128;

/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();
/// Minor page faults of this process so far.
[[nodiscard]] std::uint64_t minor_faults();

// ---------------------------------------------------------------------------
// Spans (traced pass only)

enum class Layer : std::uint8_t { kHarness, kWorkload, kCore, kSvc, kObs };
inline constexpr std::size_t kNumLayers = 5;
[[nodiscard]] const char* to_string(Layer l);

/// One span per public call the benchmark makes into a layer, plus the
/// harness's own per-request and per-event roots.
enum SpanId : std::uint8_t {
  kRequest,    ///< root: one route request
  kEvent,      ///< root: one churn event (writer call + mirror)
  kSetupRep,   ///< root: one set-up repetition
  kPair,       ///< workload::sample_uniform_pair / ServiceScript::request
  kDecide,     ///< core::decide_at_source_egs (mirrored, same snapshot)
  kServe,      ///< svc::serve_route
  kAcquire,    ///< SnapshotOracle::acquire (the reader's own call)
  kWriter,     ///< add_fault / remove_fault / fail_link / recover_link / apply
  kCascade,    ///< the same event on a mirrored core::EgsOracle
  kOffer,      ///< obs::SamplingSink::offer
  kReplay,     ///< obs::SamplingSink::replay_chain
  kRunEgs,     ///< core::run_egs from scratch
  kConstruct,  ///< svc::SnapshotOracle / ServiceScript construction
  kReserve,    ///< svc::serve_route re-run traced to regenerate a chain
  kNumSpans
};

struct SpanInfo {
  const char* name;
  Layer layer;
};
inline constexpr std::array<SpanInfo, kNumSpans> kSpans = {{
    {"request", Layer::kHarness},
    {"event", Layer::kHarness},
    {"setup_rep", Layer::kHarness},
    {"workload.pair", Layer::kWorkload},
    {"core.decide_at_source_egs", Layer::kCore},
    {"svc.serve_route", Layer::kSvc},
    {"svc.acquire", Layer::kSvc},
    {"svc.writer", Layer::kSvc},
    {"core.egs_oracle", Layer::kCore},
    {"obs.offer", Layer::kObs},
    {"obs.replay_chain", Layer::kObs},
    {"core.run_egs", Layer::kCore},
    {"svc.construct", Layer::kSvc},
    {"svc.serve_route.traced", Layer::kSvc},
}};

/// A single thread's span recorder. Spans nest through a small stack;
/// ending one charges its duration to the parent's child time, so self
/// time (duration minus children) is aggregated as the run goes. The
/// first `keep` spans are retained verbatim for the span file.
class ThreadTrace {
 public:
  explicit ThreadTrace(unsigned thread, std::size_t keep = 1u << 16);

  void begin(SpanId id);
  void end();
  /// Start a new request/event id for the next root span.
  void next_request() noexcept { ++request_; }

  [[nodiscard]] std::int64_t self_ns(SpanId id) const { return self_[id]; }
  [[nodiscard]] double mean_ns(SpanId id) const {
    return count_[id] ? static_cast<double>(total_[id]) /
                            static_cast<double>(count_[id])
                      : 0.0;
  }
  void merge(const ThreadTrace& o);
  /// One JSON object per retained span.
  void write(std::ostream& out) const;

 private:
  struct Record {
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::uint64_t request = 0;
    std::int32_t parent = -1;
    std::uint8_t id = 0;
    std::uint8_t thread = 0;
  };
  struct Open {
    std::int64_t start = 0;
    std::int64_t child_ns = 0;
    std::int32_t record = -1;
    std::uint8_t id = 0;
  };
  unsigned thread_;
  std::size_t keep_;
  std::uint64_t request_ = 0;
  std::vector<Record> kept_;
  std::array<Open, 8> stack_{};
  std::size_t depth_ = 0;
  std::array<std::uint64_t, kNumSpans> count_{};
  std::array<std::int64_t, kNumSpans> total_{};
  std::array<std::int64_t, kNumSpans> self_{};
};

/// RAII span; a no-op when `trace` is null (the untraced pass).
class Span {
 public:
  Span(ThreadTrace* trace, SpanId id) : trace_(trace) {
    if (trace_ != nullptr) trace_->begin(id);
  }
  ~Span() {
    if (trace_ != nullptr) trace_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadTrace* trace_;
};

// ---------------------------------------------------------------------------
// Workload inputs

/// `count` distinct node faults drawn from the seed's own substream.
[[nodiscard]] fault::FaultSet make_node_faults(const topo::Hypercube& cube,
                                               std::uint64_t count,
                                               std::uint64_t seed);
/// `count` distinct faulty links whose endpoints are both healthy, so each
/// puts two nodes into N2 (the self view is exercised).
[[nodiscard]] fault::LinkFaultSet make_link_faults(
    const topo::Hypercube& cube, const fault::FaultSet& faults,
    std::size_t count, std::uint64_t seed);

/// One churn event as the writer receives it.
struct ChurnEvent {
  enum class Kind : std::uint8_t {
    kNodeFail,
    kNodeRecover,
    kLinkFail,
    kLinkRecover,
    kBatch,
  };
  Kind kind = Kind::kNodeFail;
  NodeId node = 0;
  Dim dim = 0;
  std::vector<NodeId> node_toggles;  ///< kBatch only
  std::vector<core::EgsOracle::LinkToggle> link_toggles;  ///< kBatch only
};

/// Seeded churn: node faults random-walk around `node_target`, link
/// faults around `link_target`, and every eighth event is a batch of two
/// node and two link toggles applied through one apply() call. The script
/// keeps its own copy of the fault state, so it needs nothing from the
/// program to choose the next event.
class ChurnScript {
 public:
  ChurnScript(const topo::Hypercube& cube, const fault::FaultSet& faults,
              const fault::LinkFaultSet& links, std::uint64_t node_target,
              std::size_t link_target, std::uint64_t seed);
  /// The next event (valid until the following call).
  const ChurnEvent& next();

 private:
  void toggle_node(bool batch);
  void toggle_link(bool batch);

  topo::Hypercube cube_;
  fault::FaultSet faults_;
  fault::LinkFaultSet links_;
  std::vector<NodeId> faulty_;
  std::vector<std::pair<NodeId, Dim>> faulty_links_;
  std::uint64_t node_target_;
  std::size_t link_target_;
  Xoshiro256ss rng_;
  std::uint64_t events_ = 0;
  ChurnEvent ev_;
};

/// Deliver one event through the writer API of `w` — a
/// svc::SnapshotOracle or a core::EgsOracle, which share it.
template <typename Writer>
void apply_event(Writer& w, const ChurnEvent& ev) {
  switch (ev.kind) {
    case ChurnEvent::Kind::kNodeFail:
      w.add_fault(ev.node);
      break;
    case ChurnEvent::Kind::kNodeRecover:
      w.remove_fault(ev.node);
      break;
    case ChurnEvent::Kind::kLinkFail:
      w.fail_link(ev.node, ev.dim);
      break;
    case ChurnEvent::Kind::kLinkRecover:
      w.recover_link(ev.node, ev.dim);
      break;
    case ChurnEvent::Kind::kBatch:
      w.apply(ev.node_toggles, ev.link_toggles);
      break;
  }
}

// ---------------------------------------------------------------------------
// Route accounting shared by the workloads

/// Order-free fold of one route's (index, status, hops), as
/// bench_mega_cube folds its sweep.
[[nodiscard]] std::uint64_t route_mix(std::uint64_t index, unsigned status,
                                      unsigned hops);

/// Order-free fold of one route's index, source decision (C1/C2/C3) and
/// whole path: catches a changed hop choice that keeps the hop count.
[[nodiscard]] std::uint64_t path_mix(std::uint64_t index,
                                     const svc::ServeResult& r);

/// Neighbor-level reads the route's decisions cost: n at the source (the
/// C1/C2/C3 check reads every neighbor) plus popcount(nav) at each
/// intermediate node that still had a choice (a final hop with one bit
/// left reads no level, footnote 3). Derived from the returned path.
[[nodiscard]] std::uint64_t level_reads(const topo::Hypercube& cube,
                                        const svc::ServeResult& r, NodeId d);

/// Snapshot acquires a live serve_route makes, counting the caller's own
/// decision acquire: one at launch, one per landed hop, one for the hop
/// that a drop cut short.
[[nodiscard]] std::uint64_t live_acquires(const svc::ServeResult& r);

/// True when the outcome is one the algorithm may produce: delivered in
/// exactly H or H+2 hops along existing links, refused at the source, or
/// dropped on a route whose ground epoch outran its decision epoch.
[[nodiscard]] bool outcome_valid(const topo::Hypercube& cube,
                                 const svc::ServeResult& r, NodeId s,
                                 NodeId d);

/// The O(1) part of outcome_valid, for timed loops: not stuck, no drop
/// unless stale, and a delivery in exactly H or H+2 hops.
[[nodiscard]] bool outcome_plausible(const svc::ServeResult& r, NodeId s,
                                     NodeId d);

/// Payload bytes one publish copies: fault bits, the per-node adjacent
/// faulty-link counts, the faulty-link keys, and both packed views.
[[nodiscard]] std::uint64_t snapshot_bytes(const svc::Snapshot& snap);

/// Both views of `snap` equal a from-scratch run_egs of its own faults.
[[nodiscard]] bool matches_scratch(const svc::Snapshot& snap);

// ---------------------------------------------------------------------------
// Results

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< any entry makes the run incorrect
  std::vector<Metric> metrics;
  /// Exact, host-independent values compared against the recorded ones.
  std::vector<std::pair<std::string, std::uint64_t>> checks;
  std::vector<std::string> notes;  ///< human-readable diagnostics

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(std::string name, std::uint64_t value) {
    checks.emplace_back(std::move(name), value);
  }
  void expect(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;  ///< traced pass: where the span file goes
};

/// Run `build` once as a warm-up and then `reps` more times, each on the
/// next CPU; returns the set-up time in seconds. `reset` frees the
/// previous build outside the clock. The count is fixed rather than
/// time-bound so the allocation history, and with it peak_rss_mb, does not
/// depend on host speed. Like a slice, each repetition is bracketed by
/// canaries, and the median is taken over the full-speed repetitions when
/// there are at least three of them.
template <typename Reset, typename Build>
double time_setup(Reset&& reset, Build&& build, unsigned reps,
                  ThreadTrace* trace, Result& result) {
  std::vector<double> secs;
  std::vector<double> canaries;
  std::vector<double> faults;
  for (unsigned rep = 0; rep <= reps; ++rep) {
    reset();
    move_to_cpu(rep);
    const double c0 = canary_ns();
    const std::uint64_t f0 = minor_faults();
    const std::int64_t t0 = now_ns();
    {
      const Span span(trace, kSetupRep);
      build();
    }
    const double s = static_cast<double>(now_ns() - t0) / 1e9;
    const double f = static_cast<double>(minor_faults() - f0);
    const double c1 = canary_ns();
    if (rep == 0) {
      result.notes.push_back("setup warm-up rep: " + std::to_string(s) +
                             " s, " + std::to_string(f) + " minor faults");
      continue;
    }
    secs.push_back(s);
    canaries.push_back(std::max(c0, c1));
    faults.push_back(f);
  }
  unpin();
  const double limit = 1.2 * quantile(canaries, 0.01);
  std::vector<double> fast;
  for (std::size_t i = 0; i < secs.size(); ++i) {
    if (canaries[i] <= limit) fast.push_back(secs[i]);
  }
  const double setup = fast.size() >= 3 ? median(fast) : median(secs);
  result.notes.push_back(
      "setup reps: " + std::to_string(secs.size()) + " (" +
      std::to_string(fast.size()) + " at full speed), reported " +
      std::to_string(setup) + " s; all reps: median " +
      std::to_string(median(secs)) + " s, quartiles " +
      std::to_string(quantile(secs, 0.25)) + " / " +
      std::to_string(quantile(secs, 0.75)) +
      " s; median minor faults/rep " + std::to_string(median(faults)));
  return setup;
}

/// Report routes_per_s, route_p50_us and route_p99_us of `meters`.
SliceSummary report_routes(const std::vector<const SliceMeter*>& meters,
                           Result& result);

/// Per-layer self time as a share of all self time recorded.
void report_self_time(const ThreadTrace& trace, Result& result);

Result run_table_q20(const Args& args);
Result run_churn_q16(const Args& args);
Result run_live_q10(const Args& args);
Result run_sampled_q14(const Args& args);

}  // namespace perfbench
