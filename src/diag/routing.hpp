// slcube::diag — routing on beliefs. The router is given the DIAGNOSED
// fault picture (a decoded syndrome and its GS fixed point) and plans a
// route exactly as core::route_unicast would; the plan is then replayed
// against the GROUND truth, which is what actually kills messages. The
// gap between the two worlds is attributed to one of three misroute
// classes:
//
//  * kFalseRejectAtSource — the plan refused (or the destination was
//    presumed faulty) although the ground-truth tables offered a route.
//    Cost: a deliverable message never enters the network.
//  * kOptimismDrop — the plan walked through a missed fault; the message
//    dies mid-route at a node the diagnosis cleared. Cost: silent loss,
//    the exact failure mode the paper's source-side check exists to
//    prevent.
//  * kPessimismDetour — the plan delivered, but spent the H + 2 spare
//    detour dodging a false accusation while the ground truth had an
//    optimal route. Cost: two extra hops per message.
//
// Every diagnosed route emits a MisrouteEvent postmortem (class "none"
// included) after its route_done, so obs::AuditSink can cross-check the
// attribution stream route by route.
#pragma once

#include "core/unicast.hpp"
#include "diag/decoder.hpp"

namespace slcube::diag {

enum class MisrouteClass : std::uint8_t {
  kNone,                 ///< plan and ground truth agree
  kFalseRejectAtSource,  ///< refused a ground-deliverable message
  kOptimismDrop,         ///< dropped at a missed fault mid-route
  kPessimismDetour,      ///< H+2 detour where ground truth was optimal
};
[[nodiscard]] const char* to_string(MisrouteClass c);

/// A diagnosed-world plan plus its ground-truth outcome.
struct DiagnosedRouteResult {
  /// The route as planned over the diagnosed tables (what was traced).
  core::RouteResult planned;
  /// Ground-truth outcome of replaying the plan.
  bool delivered = false;
  bool dropped = false;
  int drop_node = -1;        ///< ground-faulty node the replay died at
  unsigned hops_taken = 0;   ///< hops actually traversed
  MisrouteClass misroute = MisrouteClass::kNone;
  /// What the ground-truth tables would have decided at the source —
  /// the referee for the false-reject and pessimism classes.
  core::SourceDecision ground_decision;
};

/// Plan s -> d over `diagnosed`/`diagnosed_levels`, replay against
/// `ground`. Both endpoints must be GROUND-healthy (a diagnosed-faulty
/// destination yields a refusal with no condition set, traced as
/// "source-refused"). `ground_levels` must be the fixed point of
/// `ground`, `diagnosed_levels` of `diagnosed`. When `options.trace` is
/// set, the planned route is traced as usual and a MisrouteEvent follows
/// the route_done.
[[nodiscard]] DiagnosedRouteResult route_diagnosed(
    const topo::Hypercube& cube, const fault::FaultSet& ground,
    const core::SafetyLevels& ground_levels, const fault::FaultSet& diagnosed,
    const core::SafetyLevels& diagnosed_levels, NodeId s, NodeId d,
    const core::UnicastOptions& options = {});

}  // namespace slcube::diag
