// slcube::obs — structured trace events: typed records for everything the
// paper's argument turns on (which of C1/C2/C3 fired at the source, which
// preferred/spare neighbor was chosen per hop, how many GS rounds
// stabilization took, message sends/drops, node failures/recoveries) plus
// per-point sweep summaries.
//
// Cost model: producers hold a nullable `TraceSink*` and construct events
// only inside an `if (sink)` guard, so the untraced hot path pays one
// predictable branch. The routers check once per route and then run an
// untraced walk with no trace code at all (core/walk.hpp). Three sinks
// ship: NullSink (explicit no-op), RingBufferSink (bounded in-memory
// flight recorder for post-mortems), and JsonlSink (one JSON object per
// line).
//
// The JSONL schema is declared here and nowhere else: each event struct
// names its "event" value (kName) and lists its fields once, in wire
// order, as f("key", e.member) calls in fields(). event_name, write_json
// and to_trace_event are generated from those declarations, so the
// writer and every reader (audit, inspect --replay, the timeline) spell
// each key once; EXPERIMENTS.md's schema table mirrors this file.
// Reading a line that lacks a declared key leaves that member's default.
//
// Locking contract: TraceSink::on_event makes no thread-safety promise
// by itself — each concrete sink documents its own. NullSink is
// stateless and trivially safe. RingBufferSink and JsonlSink synchronize
// internally (one mutex around the ring, one around each written line),
// so SweepEngine workers may tee into a shared instance. TeeSink adds no
// locking of its own — it is exactly as safe as the least safe sink it
// fans out to. AuditSink (audit.hpp) and SamplingSink (sampling.hpp)
// synchronize internally.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "common/bitops.hpp"

namespace slcube::obs {

/// What kind of payload a simulated message carried.
enum class MsgKind : std::uint8_t { kLevelUpdate, kUnicast };
[[nodiscard]] const char* to_string(MsgKind k);

/// The source-side feasibility decision of UNICASTING_AT_SOURCE_NODE.
struct SourceDecisionEvent {
  NodeId source = 0;
  NodeId dest = 0;
  unsigned hamming = 0;  ///< H(s, d)
  bool c1 = false;
  bool c2 = false;
  bool c3 = false;
  int chosen_dim = -1;  ///< first-hop dimension; -1 when the source refused
  unsigned ties = 0;    ///< equally-maximal candidates at that choice
  bool spare = false;   ///< first hop is the one suboptimal spare detour
  // Section-4.1 two-view context; all zero/false for plain GS routes.
  bool egs = false;          ///< decided under the EGS two-view tables
  unsigned self_level = 0;   ///< source's self-view level — C1's input
  bool dest_link_faulty = false;  ///< footnote 3: dest across a dead link

  static constexpr const char* kName = "source_decision";
  static void fields(auto& e, auto&& f) {
    f("source", e.source);
    f("dest", e.dest);
    f("h", e.hamming);
    f("c1", e.c1);
    f("c2", e.c2);
    f("c3", e.c3);
    f("chosen_dim", e.chosen_dim);
    f("ties", e.ties);
    f("spare", e.spare);
    f("egs", e.egs);
    f("self_level", e.self_level);
    f("dest_link_faulty", e.dest_link_faulty);
  }
};

/// One forwarding step (preferred hop, or the single spare detour hop).
struct HopEvent {
  NodeId from = 0;
  NodeId to = 0;
  unsigned dim = 0;
  unsigned level = 0;  ///< safety level of `to` as seen by the decider
  std::uint32_t nav_before = 0;  ///< navigation vector at `from`
  std::uint32_t nav_after = 0;   ///< navigation vector carried to `to`
  bool preferred = true;         ///< false for the spare detour
  unsigned ties = 0;

  static constexpr const char* kName = "hop";
  static void fields(auto& e, auto&& f) {
    f("from", e.from);
    f("to", e.to);
    f("dim", e.dim);
    f("level", e.level);
    f("nav_before", e.nav_before);
    f("nav_after", e.nav_after);
    f("preferred", e.preferred);
    f("ties", e.ties);
  }
};

/// Terminal outcome of one unicast.
struct RouteDoneEvent {
  NodeId source = 0;
  NodeId dest = 0;
  const char* status = "";  ///< core::to_string of the RouteStatus
  unsigned hops = 0;

  static constexpr const char* kName = "route_done";
  static void fields(auto& e, auto&& f) {
    f("source", e.source);
    f("dest", e.dest);
    f("status", e.status);
    f("hops", e.hops);
  }
};

/// One completed GS/EGS stabilization round (or periodic wave).
struct GsRoundEvent {
  unsigned round = 0;
  std::uint64_t changed = 0;   ///< nodes whose level moved this round
  std::uint64_t messages = 0;  ///< LevelUpdates sent this round
  std::uint64_t sim_time = 0;
  bool egs = false;
  /// True for run_gs_periodic waves: `round` is the period index and
  /// `changed` counts useful register refreshes, so the paper's "n-1
  /// rounds to stabilize" bound does not apply.
  bool periodic = false;

  static constexpr const char* kName = "gs_round";
  static void fields(auto& e, auto&& f) {
    f("round", e.round);
    f("changed", e.changed);
    f("messages", e.messages);
    f("time", e.sim_time);
    f("egs", e.egs);
    f("periodic", e.periodic);
  }
};

/// A message entered the wire.
struct MessageSendEvent {
  std::uint64_t time = 0;
  NodeId from = 0;
  NodeId to = 0;
  MsgKind kind = MsgKind::kLevelUpdate;

  static constexpr const char* kName = "send";
  static void fields(auto& e, auto&& f) {
    f("time", e.time);
    f("from", e.from);
    f("to", e.to);
    f("kind", e.kind);
  }
};

/// A message died at delivery time (faulty link, or dead recipient).
struct MessageDropEvent {
  std::uint64_t time = 0;
  NodeId from = 0;
  NodeId to = 0;
  MsgKind kind = MsgKind::kLevelUpdate;
  const char* reason = "";  ///< "dead-node" | "faulty-link"

  static constexpr const char* kName = "drop";
  static void fields(auto& e, auto&& f) {
    f("time", e.time);
    f("from", e.from);
    f("to", e.to);
    f("kind", e.kind);
    f("reason", e.reason);
  }
};

struct NodeFailEvent {
  std::uint64_t time = 0;
  NodeId node = 0;

  static constexpr const char* kName = "node_fail";
  static void fields(auto& e, auto&& f) {
    f("time", e.time);
    f("node", e.node);
  }
};

struct NodeRecoverEvent {
  std::uint64_t time = 0;
  NodeId node = 0;

  static constexpr const char* kName = "node_recover";
  static void fields(auto& e, auto&& f) {
    f("time", e.time);
    f("node", e.node);
  }
};

/// Diagnosed-routing postmortem: how a route planned on the *presumed*
/// fault set fared against the ground truth (diag/routing.hpp). Emitted
/// once per diagnosed route, after its route_done, including the benign
/// case (`cls == "none"`), so auditors can cross-check every route.
struct MisrouteEvent {
  NodeId source = 0;
  NodeId dest = 0;
  const char* cls = "";  ///< to_string of the MisrouteClass
  int drop_node = -1;    ///< ground-faulty node the route died at, or -1
  unsigned hops_taken = 0;      ///< hops actually traversed before the end
  bool ground_feasible = false; ///< ground-truth source decision was feasible

  static constexpr const char* kName = "misroute";
  static void fields(auto& e, auto&& f) {
    f("source", e.source);
    f("dest", e.dest);
    f("cls", e.cls);
    f("drop_node", e.drop_node);
    f("hops_taken", e.hops_taken);
    f("ground_feasible", e.ground_feasible);
  }
};

/// A new safety-table epoch was published by svc::SnapshotOracle,
/// carrying its lineage: which churn produced it from its parent. This
/// is what lets a promoted trace link a stale route decision to the
/// exact fault event that made it stale.
struct EpochPublishEvent {
  std::uint64_t epoch = 0;
  std::uint64_t parent = 0;  ///< previous published epoch (== epoch at 0)
  /// "node-fail" | "node-recover" | "link-fail" | "link-recover" |
  /// "batch" (several churn records) | "init" (no churn records: epoch 0).
  const char* cause = "";
  std::int64_t node = -1;  ///< churned node / link endpoint; -1 for batch
  int dim = -1;            ///< link dimension; -1 for node churn
  std::uint64_t churn = 0;   ///< lineage records folded into this epoch
  std::uint64_t faults = 0;  ///< node faults after publish
  std::uint64_t links = 0;   ///< link faults after publish
  /// Timeline position. SnapshotOracle stamps the epoch number; scripted
  /// workloads re-stamp the request index at which the epoch activates,
  /// so epochs and route ids share one axis in timeline exports.
  std::uint64_t ts = 0;

  static constexpr const char* kName = "epoch_publish";
  static void fields(auto& e, auto&& f) {
    f("epoch", e.epoch);
    f("parent", e.parent);
    f("cause", e.cause);
    f("node", e.node);
    f("dim", e.dim);
    f("churn", e.churn);
    f("faults", e.faults);
    f("links", e.links);
    f("ts", e.ts);
  }
};

/// Per-route verdict from obs::SamplingSink: emitted after the full
/// chain for promoted routes, and (optionally) alone for breadcrumb-only
/// routes. `status` is the route's core::RouteStatus name, the same one
/// its chain's route_done carries.
struct RouteSummaryEvent {
  std::uint64_t route_id = 0;
  std::uint64_t decision_epoch = 0;
  std::uint64_t ground_epoch = 0;  ///< >= decision_epoch; > means stale
  const char* status = "";
  unsigned hops = 0;
  bool promoted = false;    ///< full chain retained (precedes this event)
  const char* reason = "";  ///< promotion reason, "none" for breadcrumbs

  static constexpr const char* kName = "route_summary";
  static void fields(auto& e, auto&& f) {
    f("route_id", e.route_id);
    f("decision_epoch", e.decision_epoch);
    f("ground_epoch", e.ground_epoch);
    f("status", e.status);
    f("hops", e.hops);
    f("promoted", e.promoted);
    f("reason", e.reason);
  }
};

/// Per-point summary of an experiment sweep: timing, worker utilization,
/// per-trial latency percentiles (the point's exp::EngineTiming), and
/// flattened result metrics.
struct SweepPointEvent {
  const char* sweep = "";  ///< "routing" | "rounds" | "links" | "diag"
  std::uint64_t fault_count = 0;
  double wall_ms = 0.0;
  double utilization = 0.0;  ///< busy worker time / (wall * workers)
  unsigned threads = 0;      ///< sweep-engine workers that ran the point
  double trial_p50_us = 0.0;
  double trial_p90_us = 0.0;
  double trial_p99_us = 0.0;
  /// Flattened result metrics, written as one nested object.
  std::vector<std::pair<std::string, double>> values;

  static constexpr const char* kName = "sweep_point";
  static void fields(auto& e, auto&& f) {
    f("sweep", e.sweep);
    f("fault_count", e.fault_count);
    f("wall_ms", e.wall_ms);
    f("utilization", e.utilization);
    f("threads", e.threads);
    f("trial_p50_us", e.trial_p50_us);
    f("trial_p90_us", e.trial_p90_us);
    f("trial_p99_us", e.trial_p99_us);
    f("values", e.values);
  }
};

using TraceEvent =
    std::variant<SourceDecisionEvent, HopEvent, RouteDoneEvent, GsRoundEvent,
                 MessageSendEvent, MessageDropEvent, NodeFailEvent,
                 NodeRecoverEvent, MisrouteEvent, EpochPublishEvent,
                 RouteSummaryEvent, SweepPointEvent>;

struct ParsedEvent;  // obs/jsonl.hpp

/// The stable "event" field value each alternative serializes under.
[[nodiscard]] const char* event_name(const TraceEvent& ev);

/// Serialize one event as a single-line JSON object (no trailing newline):
/// "event" first, then every declared field in declaration order.
void write_json(std::ostream& os, const TraceEvent& ev);

/// The inverse of write_json: rebuild the typed event a parsed line
/// names. Returns false when the "event" discriminator is missing or
/// unknown. A declared key absent from the line (or holding a value of
/// the wrong type) leaves the member's default. String fields are
/// interned in a process-lifetime pool so the const char* members stay
/// valid.
[[nodiscard]] bool to_trace_event(const ParsedEvent& parsed, TraceEvent& out);

/// Read a JSONL trace file into typed events, in file order. `malformed`
/// / `unknown` (optional) receive the counts of unparseable lines and of
/// lines that are not trace events.
[[nodiscard]] std::vector<TraceEvent> read_trace_file(
    const std::string& path, std::size_t* malformed = nullptr,
    std::size_t* unknown = nullptr);

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& ev) = 0;
};

/// Explicit stand-in for "no tracing" when a non-null sink is required.
class NullSink final : public TraceSink {
 public:
  void on_event(const TraceEvent&) override {}
};

/// Flight recorder: keeps the most recent `capacity` events in memory so
/// a failure can be explained after the fact without paying for a file.
/// Thread-safe: on_event / size / total_seen / snapshot / clear all take
/// one internal mutex, so any number of producers (e.g. SweepEngine
/// workers behind a TeeSink) may write concurrently.
class RingBufferSink final : public TraceSink {
 public:
  explicit RingBufferSink(std::size_t capacity = 4096);
  void on_event(const TraceEvent& ev) override;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t total_seen() const;
  /// Events evicted to make room (total_seen - retained). Post-mortems
  /// must check this: a nonzero count means the oldest chains in
  /// snapshot() are truncated by the ring, not by a producer bug.
  /// audit_ring (audit.hpp) folds it into AuditReport::events_lost.
  [[nodiscard]] std::uint64_t dropped() const;
  /// Retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> ring_;
  std::size_t capacity_;
  std::uint64_t seen_ = 0;
  std::uint64_t dropped_ = 0;
};

/// One JSON object per event per line, flushed on destruction. Each line
/// is written under one mutex, so any number of threads may share one
/// file. Lines from different threads interleave at event granularity —
/// fine for independent events (churn, sweep points, promoted summaries)
/// and for SamplingSink output (which forwards each promoted chain as one
/// locked burst), but threads emitting raw route chains interleave
/// *chains*; keep those per-thread or sample them.
class JsonlSink final : public TraceSink {
 public:
  /// Borrow a stream (caller keeps it alive).
  explicit JsonlSink(std::ostream& os);
  /// Own a file (truncates).
  explicit JsonlSink(const std::string& path);
  ~JsonlSink() override;

  void on_event(const TraceEvent& ev) override;

 private:
  std::mutex mutex_;
  std::unique_ptr<std::ostream> owned_;
  std::ostream* os_;
};

/// Fan out to several sinks (e.g. flight recorder + JSONL file).
///
/// Locking contract (tested under TSan in test_obs): TeeSink itself is
/// immutable after construction — on_event touches only the const sink
/// list — so concurrent calls are safe exactly when every child sink's
/// on_event is safe. TeeSink adds no ordering either: events from
/// different threads reach the children in whatever order the children's
/// own locks admit them.
class TeeSink final : public TraceSink {
 public:
  explicit TeeSink(std::vector<TraceSink*> sinks) : sinks_(std::move(sinks)) {}
  void on_event(const TraceEvent& ev) override {
    for (TraceSink* s : sinks_) {
      if (s != nullptr) s->on_event(ev);
    }
  }

 private:
  std::vector<TraceSink*> sinks_;
};

}  // namespace slcube::obs
