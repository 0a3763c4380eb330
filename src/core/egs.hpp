// Section 4.1: safety levels in hypercubes with both faulty nodes and
// faulty links — algorithm EXTENDED_GLOBAL_STATUS (EGS).
//
// Healthy nodes split into N1 (no adjacent faulty link) and N2 (at least
// one adjacent faulty link). Two views coexist:
//   * public view — what every *other* node sees: N2 nodes declare
//     themselves faulty (level 0) and regular GS runs over N1 alone;
//   * self view — an N2 node considers itself healthy, treats the far end
//     of each adjacent faulty link as faulty, and runs NODE_STATUS once
//     in the last round. (Both ends of a faulty link are in N2 when
//     healthy, so every such far end already shows public level 0 and the
//     self view reduces to NODE_STATUS over public neighbor levels.)
//
// Routing (route_unicast_egs) is the Section-3 algorithm driven by the
// public view, with the paper's footnote-3 rule: a node that others treat
// as faulty can still be a *destination* — when the navigation vector has
// a single bit left, the only preferred neighbor IS the destination and
// the message is delivered across the connecting link if that link is
// healthy. The source uses its self view for condition C1; if the
// destination is the far end of one of the source's own faulty links the
// optimal conditions are forced off (the paper's "except for the end
// node(s) of adjacent faulty link(s)" caveat) and C3 may still produce an
// H + 2 route around the dead link.
#pragma once

#include "core/safety.hpp"
#include "core/unicast.hpp"
#include "fault/link_fault_set.hpp"

namespace slcube::core {

struct EgsResult {
  /// Level of each node as seen by other nodes (N2 and faulty => 0).
  SafetyLevels public_view;
  /// Level each node uses for itself (differs from public_view only on
  /// N2 nodes).
  SafetyLevels self_view;
  /// in_n2[a] — healthy node a has at least one adjacent faulty link.
  std::vector<bool> in_n2;
};

[[nodiscard]] EgsResult run_egs(const topo::Hypercube& cube,
                                const fault::FaultSet& faults,
                                const fault::LinkFaultSet& link_faults);

/// Borrowed pair of EGS level tables. The routing entry points take this
/// instead of a concrete owner so a from-scratch EgsResult and an
/// incremental core::EgsOracle (egs_oracle.hpp) drive the identical
/// algorithm — both referents must outlive the call.
struct EgsViews {
  const SafetyLevels& public_view;
  const SafetyLevels& self_view;
};

/// Source feasibility in the two-view model (C1 on the self view, C2/C3
/// on neighbors' public levels, with the faulty-link-destination caveat).
[[nodiscard]] SourceDecision decide_at_source_egs(
    const topo::Hypercube& cube, const fault::LinkFaultSet& link_faults,
    EgsViews views, NodeId s, NodeId d);

[[nodiscard]] inline SourceDecision decide_at_source_egs(
    const topo::Hypercube& cube, const fault::LinkFaultSet& link_faults,
    const EgsResult& egs, NodeId s, NodeId d) {
  return decide_at_source_egs(cube, link_faults,
                              EgsViews{egs.public_view, egs.self_view}, s, d);
}

/// Route one unicast under node + link faults. Endpoints must be healthy
/// nodes (N2 membership is fine — that is the point of Section 4.1).
/// With UnicastOptions::trace set, the route emits the same event chain
/// as route_unicast, with the SourceDecisionEvent carrying the two-view
/// context (egs / self_level / dest_link_faulty) the auditor checks.
[[nodiscard]] RouteResult route_unicast_egs(
    const topo::Hypercube& cube, const fault::FaultSet& faults,
    const fault::LinkFaultSet& link_faults, EgsViews views, NodeId s,
    NodeId d, const UnicastOptions& options = {});

[[nodiscard]] inline RouteResult route_unicast_egs(
    const topo::Hypercube& cube, const fault::FaultSet& faults,
    const fault::LinkFaultSet& link_faults, const EgsResult& egs, NodeId s,
    NodeId d, const UnicastOptions& options = {}) {
  return route_unicast_egs(cube, faults, link_faults,
                           EgsViews{egs.public_view, egs.self_view}, s, d,
                           options);
}

}  // namespace slcube::core
