// slcube::obs — the audit report: structured violations plus the derived
// diagnostics the audit pass aggregates while it checks (per-dimension
// hop heatmap, spare-detour attribution, GS convergence profile, drop
// forensics, hop-count histogram). Renderable two ways: as human text
// tables (common/table) and as one stable flat JSON object that
// obs::parse_jsonl_line can read back (documented in EXPERIMENTS.md
// under AUDIT).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace slcube::obs {

/// Every invariant class the audit engine checks. Keep in sync with
/// to_string() and the per-kind counters in AuditReport.
enum class ViolationKind : std::uint8_t {
  kHopCountMismatch,   ///< delivered route not exactly H (or H+2) hops
  kNavBitNotToggled,   ///< nav_after != nav_before with dim toggled
  kBrokenChain,        ///< hop/done without source, dangling chain, bad from
  kFlagsInconsistent,  ///< C1/C2/C3 vs chosen first hop / terminal status
  kSpareMisuse,        ///< spare hop not first / wrong preferred flag / >1
  kHopLevelTooLow,     ///< preferred hop below the Theorem-2 level floor
  kStuckRoute,         ///< "stuck" terminal status (needs stale levels)
  kGsRoundOrder,       ///< non-monotone round sequence within a wave
  kGsBoundExceeded,    ///< quiesced wave took > n-1 rounds, no fault churn
  kDropWithoutSend,    ///< MessageDrop with no matching prior MessageSend
  kTruncatedRoute,     ///< stream ended with the route still open
  kMisrouteUnattributed,  ///< misroute event with no class or no route
  /// Sampled-stream reconciliation failed: a promoted RouteSummary does
  /// not match the chain it follows (status class / hop count / no
  /// chain at all), or the sampler's counters disagree with the audited
  /// stream (reconcile_sampling).
  kSummaryMismatch,
};
inline constexpr std::size_t kNumViolationKinds = 13;

[[nodiscard]] const char* to_string(ViolationKind k);

struct AuditViolation {
  ViolationKind kind = ViolationKind::kBrokenChain;
  std::string detail;  ///< human-readable specifics (nodes, navs, rounds)
};

struct AuditReport {
  /// Starts empty with the standard hop-count / wall-ms bucket ladders.
  AuditReport();

  // --- stream totals ---
  std::uint64_t events = 0;
  std::uint64_t routes = 0;
  std::uint64_t hops = 0;
  std::uint64_t spare_hops = 0;
  std::map<std::string, std::uint64_t> routes_by_status;

  // --- violations ---
  std::uint64_t violations_total = 0;
  std::uint64_t violations_by_kind[kNumViolationKinds] = {};
  /// First AuditConfig::max_violation_details violations, with detail.
  std::vector<AuditViolation> details;

  // --- per-dimension hop heatmap + detour attribution ---
  std::map<unsigned, std::uint64_t> preferred_by_dim;
  std::map<unsigned, std::uint64_t> spare_by_dim;
  /// Spare detours by the source decision's Hamming distance H.
  std::map<unsigned, std::uint64_t> spare_by_hamming;

  // --- GS convergence profile ---
  std::uint64_t gs_waves = 0;
  unsigned gs_max_round = 0;
  /// round index -> (sum of `changed` over waves, waves reaching round).
  std::map<unsigned, std::pair<std::uint64_t, std::uint64_t>> gs_curve;

  // --- diagnosed-routing misroute attribution ---
  /// Misroute postmortems by class ("none" | "false-reject-source" |
  /// "optimism-drop" | "pessimism-detour"); `misroutes` counts the
  /// non-"none" ones.
  std::uint64_t misroutes = 0;
  std::map<std::string, std::uint64_t> misroutes_by_class;

  // --- message forensics ---
  std::uint64_t sends = 0;
  std::uint64_t drops = 0;
  std::map<std::string, std::uint64_t> drops_by_reason;

  // --- sampled-stream accounting (SamplingSink upstream) ---
  /// RouteSummaryEvents seen, split by the promoted flag. A sampled
  /// stream has `routes == promoted_routes`; the breadcrumb-only
  /// remainder is reconciled by count, never flagged as truncated.
  std::uint64_t promoted_routes = 0;
  std::uint64_t breadcrumb_routes = 0;
  std::map<std::string, std::uint64_t> promoted_by_reason;
  /// Epoch lineage seen in-stream (epoch_publish events).
  std::uint64_t epochs_published = 0;
  /// Producer-reported losses folded in from outside the stream:
  /// RingBufferSink evictions (audit_ring) and sampler sheds
  /// (reconcile_sampling). Nonzero means missing chains are explained
  /// truncation, not producer bugs.
  std::uint64_t events_lost = 0;

  // --- distributions ---
  HistogramData hops_per_route;   ///< delivered routes only
  std::uint64_t sweep_points = 0;
  HistogramData sweep_wall_ms;

  [[nodiscard]] bool clean() const noexcept { return violations_total == 0; }

  /// Human rendering: summary + violations + heatmap + GS profile +
  /// drop forensics as common/table tables (plus the first violation
  /// details verbatim).
  void render_text(std::ostream& os) const;

  /// One flat JSON object (single line, no trailing newline) in the
  /// dialect obs::parse_jsonl_line reads: scalars plus one level of
  /// nesting. Schema documented in EXPERIMENTS.md (AUDIT).
  void write_json(std::ostream& os) const;
};

/// Bucket ladder for hops_per_route: one bucket per hop count 0..32.
[[nodiscard]] std::vector<double> hop_count_bounds();

/// Bucket ladder for sweep_wall_ms (0.01 ms .. ~160 s, doubling).
[[nodiscard]] std::vector<double> sweep_wall_bounds();

}  // namespace slcube::obs
