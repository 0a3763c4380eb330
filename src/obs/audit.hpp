// slcube::obs — the trace audit engine: a streaming TraceSink that turns
// the event stream from a write-only log into a runtime correctness
// oracle. It reconstructs per-route causal chains (SourceDecision ->
// Hop* -> RouteDone) and checks the paper's trace-shaped invariants
// online:
//
//   * an optimal route takes exactly H hops, each a preferred hop that
//     clears one navigation-vector bit (Theorem 2);
//   * a spare first hop *sets* one bit and the route repays it, landing
//     in exactly H + 2 hops (SUBOPTIMAL_UNICASTING);
//   * every HopEvent's nav_after equals nav_before with dim toggled, and
//     hop.to == hop.from with dim toggled;
//   * C1/C2/C3 are mutually consistent with the chosen first hop and the
//     terminal status (the core::RouteStatus names, which every producer
//     emits);
//   * a route dropped in flight shows the send/drop pair of the message
//     it lost, sent by the last node it reached; a refused or
//     dropped-at-source route chose no first hop;
//   * every preferred hop's advertised level covers the remaining
//     distance (level >= popcount(nav_after), the Theorem-2 floor) —
//     except after node churn that no quiesced GS wave has followed;
//   * GS/EGS round sequences are monotone (+1 per round) and a wave that
//     quiesces with no mid-wave fault churn stabilizes within n - 1
//     rounds (Corollary to Property 1) — checked when the dimension is
//     configured;
//   * every MessageDrop has a matching prior MessageSend;
//   * every diagnosed-routing misroute postmortem follows the closed
//     route it judges, carries a known class, and is internally
//     consistent (drop node, ground feasibility, delivered hop count).
//
// Violations are collected as structured AuditViolation records, never
// asserts: the auditor is wired into live benches and must report, not
// abort. The same pass aggregates the derived diagnostics (hop heatmap,
// detour attribution, GS convergence profile, drop forensics, hop-count
// histogram) into an AuditReport (see report.hpp for rendering).
//
// Concurrency contract: on_event() is safe to call from any number of
// threads (one mutex; per-thread chain lanes keyed by thread id), so a
// single AuditSink can be tee'd into every worker of an exp::SweepEngine
// sweep. Events of one route must be emitted by one thread without
// interleaving another route on that thread — which is how every
// producer in this repository behaves (a route is traced synchronously
// by the thread that runs it).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace slcube::obs {

struct AuditConfig {
  /// Cube dimension n; enables the GS "<= n-1 rounds" bound and the
  /// nav-vector width check. 0 = unknown (those checks are skipped).
  unsigned dimension = 0;
  /// Detailed violation records kept (the counters in the report are
  /// always exact; this only bounds the per-violation detail strings).
  std::size_t max_violation_details = 64;
};

/// A streaming auditor; see the file comment for the invariants.
class AuditSink final : public TraceSink {
 public:
  explicit AuditSink(AuditConfig config = {});

  /// Thread-safe; see the concurrency contract above.
  void on_event(const TraceEvent& ev) override;

  /// Declare the stream complete: routes and GS waves still open become
  /// kTruncatedRoute / dangling-wave violations. Idempotent.
  void finish();

  /// Reconcile a sampled stream against the upstream SamplingSink's
  /// counters (the breadcrumb-only routes never reached this sink, so
  /// they are checked by count, not flagged as truncated): every
  /// promoted route must have arrived as a full audited chain with its
  /// summary, and the breadcrumb remainder is recorded in the report.
  /// `shed_events` (chain events the budget shed) land in events_lost.
  /// Call once, after the stream ends and before report().
  void reconcile_sampling(std::uint64_t promoted,
                          std::uint64_t breadcrumb_only,
                          std::uint64_t shed_events = 0);

  /// Fold a producer-reported loss count (e.g. RingBufferSink::dropped)
  /// into the report, marking missing chains as explained truncation.
  void note_events_lost(std::uint64_t lost);

  /// Snapshot of everything audited so far (violations + diagnostics).
  /// Call finish() first when the stream has ended.
  [[nodiscard]] AuditReport report() const;

  /// Total violations recorded so far (cheap; for assertion loops).
  [[nodiscard]] std::uint64_t violation_count() const;

 private:
  /// Kinds of fault churn a lane has seen (bits of Lane::route_churn and
  /// Lane::stale_churn).
  enum Churn : std::uint8_t {
    kNodeChurn = 1,   ///< node_fail / node_recover
    kEpochChurn = 2,  ///< epoch_publish with churn != 0
  };

  /// Per-thread audit lane: the in-flight route chain plus this thread's
  /// GS-wave and send/drop trackers. Threads never share a lane, so all
  /// per-route state is interleaving-free by construction.
  struct Lane {
    // --- in-flight route chain ---
    bool route_open = false;
    std::uint8_t route_churn = 0;  ///< Churn bits seen mid-route
    /// The message the open route lost: a unicast drop matched to its
    /// send while the route was open.
    std::optional<MessageDropEvent> lost;
    /// Churn bits seen since the last quiesced synchronous GS wave: level
    /// tables may be stale, so "stuck is impossible" is suspended until
    /// the stream shows a full re-stabilization. After node churn so is
    /// the Theorem-2 floor, because a holder may decide on registers
    /// that no longer match its neighbors' levels; a served route decides
    /// on one immutable epoch, so epoch churn leaves the floor on.
    std::uint8_t stale_churn = 0;
    SourceDecisionEvent source;
    std::vector<HopEvent> hops;
    // --- last closed route, kept for misroute attribution ---
    // MisrouteEvents arrive AFTER their route_done (the router emits the
    // terminal event internally, then the diagnosed wrapper judges it
    // against ground truth), so the summary of the just-closed route is
    // retained until the next route opens or a misroute consumes it.
    bool last_route_valid = false;
    NodeId last_route_source = 0;
    NodeId last_route_dest = 0;
    const char* last_route_status = "";
    unsigned last_route_hops = 0;
    /// RouteSummaryEvents use their own consumption flag (parallel to
    /// last_route_valid, which misroute postmortems consume) so a
    /// sampled diagnosed stream can carry both postmortems.
    bool last_route_exists = false;
    bool last_route_summarized = false;
    // --- GS wave tracker ---
    bool wave_open = false;
    unsigned wave_next_round = 0;
    bool wave_egs = false;
    bool wave_periodic = false;
    bool wave_saw_fault_churn = false;
    // --- drop matching: prior sends by (from << 32 | to), per MsgKind ---
    std::map<std::uint64_t, std::uint64_t> sends[2];
  };

  Lane& lane_locked();

  void violation(ViolationKind kind, std::string detail);
  void handle(Lane& lane, const SourceDecisionEvent& ev);
  void handle(Lane& lane, const HopEvent& ev);
  void handle(Lane& lane, const RouteDoneEvent& ev);
  void handle(Lane& lane, const GsRoundEvent& ev);
  void handle(Lane& lane, const MisrouteEvent& ev);
  void handle(Lane& lane, const RouteSummaryEvent& ev);
  void close_route(Lane& lane, const RouteDoneEvent& done);
  void close_wave(Lane& lane, unsigned final_round, bool quiesced);

  AuditConfig config_;
  mutable std::mutex mutex_;
  std::map<std::thread::id, Lane> lanes_;
  AuditReport report_;
  bool finished_ = false;
};

/// Audit a whole JSONL trace file offline: read it with read_trace_file,
/// stream the typed events through an AuditSink, finish. `malformed` /
/// `unknown` (optional) receive counts of unparseable lines / unknown
/// event kinds.
[[nodiscard]] AuditReport audit_jsonl_file(const std::string& path,
                                           const AuditConfig& config = {},
                                           std::size_t* malformed = nullptr,
                                           std::size_t* unknown = nullptr);

/// Post-mortem audit of a flight recorder: replay the retained events
/// through a fresh AuditSink and fold the ring's eviction count into
/// AuditReport::events_lost, so chain violations in a clipped recording
/// are distinguishable from real producer bugs (events_lost > 0 means
/// the oldest chains were truncated by the ring).
[[nodiscard]] AuditReport audit_ring(const RingBufferSink& ring,
                                     const AuditConfig& config = {});

}  // namespace slcube::obs
