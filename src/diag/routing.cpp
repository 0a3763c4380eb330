#include "diag/routing.hpp"

#include "common/contracts.hpp"
#include "core/walk.hpp"

namespace slcube::diag {

const char* to_string(MisrouteClass c) {
  switch (c) {
    case MisrouteClass::kNone:
      return "none";
    case MisrouteClass::kFalseRejectAtSource:
      return "false-reject-source";
    case MisrouteClass::kOptimismDrop:
      return "optimism-drop";
    case MisrouteClass::kPessimismDetour:
      return "pessimism-detour";
  }
  SLC_UNREACHABLE("bad MisrouteClass");
}

namespace {

MisrouteClass classify(const DiagnosedRouteResult& r) {
  if (r.planned.status == core::RouteStatus::kSourceRefused) {
    return r.ground_decision.feasible() ? MisrouteClass::kFalseRejectAtSource
                                        : MisrouteClass::kNone;
  }
  if (r.dropped) return MisrouteClass::kOptimismDrop;
  if (r.planned.status == core::RouteStatus::kStuck) {
    // A consistent diagnosed table cannot get stuck (Theorem 2); treat a
    // stuck plan that survived replay as over-caution, defensively.
    return MisrouteClass::kPessimismDetour;
  }
  if (r.planned.status == core::RouteStatus::kDeliveredSuboptimal &&
      r.ground_decision.optimal_feasible()) {
    return MisrouteClass::kPessimismDetour;
  }
  return MisrouteClass::kNone;
}

}  // namespace

DiagnosedRouteResult route_diagnosed(const topo::Hypercube& cube,
                                     const fault::FaultSet& ground,
                                     const core::SafetyLevels& ground_levels,
                                     const fault::FaultSet& diagnosed,
                                     const core::SafetyLevels& diagnosed_levels,
                                     NodeId s, NodeId d,
                                     const core::UnicastOptions& options) {
  SLC_EXPECT_MSG(ground.is_healthy(s) && ground.is_healthy(d),
                 "diagnosed route endpoints must be ground-healthy");
  DiagnosedRouteResult r;
  r.ground_decision = core::decide_at_source(cube, ground_levels, s, d);

  if (diagnosed.is_faulty(d)) {
    // The system believes the destination is dead, so no condition is
    // even checked: a refusal with C1, C2 and C3 all unset.
    r.planned.status = core::RouteStatus::kSourceRefused;
    r.planned.decision.hamming =
        bits::popcount(static_cast<std::uint32_t>(s ^ d));
    r.planned.path = {s};
    if (options.trace != nullptr) {
      core::TraceEvents events{options.trace, s, d, &r.planned.decision};
      events.source(-1, 0, false);
      events.done(r.planned.status, 0);
    }
  } else {
    // Plan on the diagnosed tables. `ground` is passed as the fault set
    // because route_unicast consults it only for its endpoint healthiness
    // contract — every forwarding decision reads the level table, which
    // is the diagnosed one.
    r.planned =
        core::route_unicast(cube, ground, diagnosed_levels, s, d, options);
  }

  // Replay the plan against the ground truth: the message dies on
  // arrival at the first ground-faulty node.
  r.hops_taken = r.planned.hops();
  for (std::size_t i = 1; i < r.planned.path.size(); ++i) {
    if (ground.is_faulty(r.planned.path[i])) {
      r.dropped = true;
      r.drop_node = static_cast<int>(r.planned.path[i]);
      r.hops_taken = static_cast<unsigned>(i);
      break;
    }
  }
  r.delivered = r.planned.delivered() && !r.dropped;
  r.misroute = classify(r);

  if (options.trace != nullptr) {
    obs::MisrouteEvent ev;
    ev.source = s;
    ev.dest = d;
    ev.cls = to_string(r.misroute);
    ev.drop_node = r.drop_node;
    ev.hops_taken = r.hops_taken;
    ev.ground_feasible = r.ground_decision.feasible();
    options.trace->on_event(ev);
  }
  return r;
}

}  // namespace slcube::diag
