// The unicasting algorithm of Section 3 — UNICASTING_AT_SOURCE_NODE and
// UNICASTING_AT_INTERMEDIATE_NODE.
//
// At the source s with destination d, H = H(s, d), N = s ⊕ d:
//   C1: S(s) >= H                        — source safe enough
//   C2: ∃ preferred neighbor with level >= H - 1
//   C3: ∃ spare neighbor with level >= H + 1
// C1 or C2 => OPTIMAL unicasting: forward to the preferred neighbor of
// maximal safety level, clearing that navigation bit. Else C3 =>
// SUBOPTIMAL: forward once to the spare neighbor of maximal level,
// *setting* its navigation bit (the detour is repaid later), after which
// routing proceeds exactly as in the optimal case from the spare node.
// Else the unicast FAILS, detected entirely at the source — the feature
// that makes the scheme usable in disconnected hypercubes (Section 3.3).
//
// Every intermediate node forwards to its preferred neighbor of maximal
// safety level. Theorem 2 guarantees that under C1/C2 the max-level
// preferred neighbor always has level >= remaining distance - 1, so the
// walk never meets a dead end and delivers in exactly H hops (H + 2 when
// C3 was used). A healthy node always has level >= 1, so "level == 0"
// is synonymous with "faulty" and routing needs only the level table.
//
// Tie-breaking among equally-maximal neighbors is not specified by the
// paper; kLowestDim reproduces every concrete route the paper walks
// through (Figs. 1 and 3), and kRandom is the ablation (DESIGN.md #1).
//
// The walk itself, shared with the EGS, safety-vector and serving
// routers and the simulator, is core/walk.hpp; the routers here are its
// instantiations.
#pragma once

#include <cstdint>

#include "analysis/path.hpp"
#include "common/rng.hpp"
#include "core/safety.hpp"
#include "obs/trace.hpp"

namespace slcube::core {

enum class RouteStatus : std::uint8_t {
  kDeliveredOptimal,     ///< delivered in exactly H hops
  kDeliveredSuboptimal,  ///< delivered in exactly H + 2 hops
  kSourceRefused,        ///< C1, C2 and C3 all failed; nothing was sent
  kStuck,                ///< mid-route dead end — impossible unless the
                         ///< level table is inconsistent/stale (used by
                         ///< robustness experiments)
  // Judged routes only (svc::serve_route, sim::route_unicast_sim): the
  // decision view allowed a traversal the ground refused.
  kDroppedSource,  ///< source already dead on the ground at launch
  kDroppedNode,    ///< a hop landed on a node dead on the ground
  kDroppedLink,    ///< a hop crossed a link dead on the ground
  /// The serving layer's name for kSourceRefused, kept for perfbench.
  kRefused = kSourceRefused,
};

[[nodiscard]] constexpr bool is_drop(RouteStatus s) noexcept {
  return s >= RouteStatus::kDroppedSource;
}

[[nodiscard]] const char* to_string(RouteStatus s);

enum class TieBreak : std::uint8_t { kLowestDim, kRandom };

struct UnicastOptions {
  TieBreak tie_break = TieBreak::kLowestDim;
  /// Required when tie_break == kRandom.
  Xoshiro256ss* rng = nullptr;
  /// When non-null, the route emits structured events (source decision,
  /// every hop, spare detour, terminal status) to this sink. The router
  /// picks its traced or untraced walk once, before the first decision;
  /// the untraced walk contains no trace code.
  obs::TraceSink* trace = nullptr;
};

/// The source-side feasibility check, exposed separately because the
/// paper stresses that feasibility is decidable *locally at the source*.
struct SourceDecision {
  unsigned hamming = 0;
  bool c1 = false;
  bool c2 = false;
  bool c3 = false;
  /// EGS only (Section 4.1, footnote 3): the destination is the far end
  /// of one of the source's own faulty links. C1 is forced off — the
  /// self-view guarantee excludes exactly these nodes — and any delivery
  /// must take the H + 2 detour around the dead link. Always false for
  /// plain node-fault routing.
  bool dest_link_faulty = false;
  [[nodiscard]] bool optimal_feasible() const noexcept { return c1 || c2; }
  [[nodiscard]] bool feasible() const noexcept { return c1 || c2 || c3; }
};

[[nodiscard]] SourceDecision decide_at_source(const topo::Hypercube& cube,
                                              const SafetyLevels& levels,
                                              NodeId s, NodeId d);

struct RouteResult {
  RouteStatus status = RouteStatus::kSourceRefused;
  SourceDecision decision;
  /// Visited nodes, source first; complete on delivery, partial on kStuck,
  /// cut at the last node reached on a drop, just {s} on kSourceRefused.
  analysis::Path path;

  [[nodiscard]] bool delivered() const noexcept {
    return status == RouteStatus::kDeliveredOptimal ||
           status == RouteStatus::kDeliveredSuboptimal;
  }
  [[nodiscard]] bool dropped() const noexcept { return is_drop(status); }
  [[nodiscard]] unsigned hops() const noexcept {
    return static_cast<unsigned>(path.size() - 1);
  }
};

/// Route one unicast from s to d. Both endpoints must be healthy; `levels`
/// is normally the stabilized GS fixed point, but any table is accepted
/// (robustness experiments feed deliberately stale ones, which is the only
/// way to observe kStuck).
[[nodiscard]] RouteResult route_unicast(const topo::Hypercube& cube,
                                        const fault::FaultSet& faults,
                                        const SafetyLevels& levels, NodeId s,
                                        NodeId d,
                                        const UnicastOptions& options = {});

/// ABLATION — "route anyway": skip the C1/C2/C3 feasibility check and
/// greedily forward to the max-level healthy preferred neighbor at every
/// node, getting stuck at dead ends. Quantifies what the source-side
/// check is worth: every delivery here is optimal (only preferred hops),
/// but the message can die mid-route — precisely the unpredictability
/// the paper's feasibility check eliminates. Never used by the real
/// scheme; benches compare salvage rate vs wasted traffic on pairs the
/// checked algorithm refuses.
[[nodiscard]] RouteResult route_unicast_greedy(
    const topo::Hypercube& cube, const fault::FaultSet& faults,
    const SafetyLevels& levels, NodeId s, NodeId d,
    const UnicastOptions& options = {});

}  // namespace slcube::core
