// The unicast of Section 3 executed as real hop-by-hop message traffic:
// core/walk.hpp's walk, decided by whichever node holds the packet from
// nothing but its own level, its neighbor registers and the liveness of
// its direct links and neighbors, with the network as the ground judge.
// Tests assert that it equals core::route_unicast on every stabilized
// network.
//
// Mid-flight failures (the Section 2.2 "demand-driven" discussion): a
// scheduled failure can kill a node while the packet travels. A sender
// always sees a *neighbor's* death (assumption 2) and re-decides with the
// updated view, so the packet is only lost if the node it is sent to
// dies by its arrival (kDroppedNode); if every preferred neighbor is dead
// it is aborted at its holder (kStuck) — the paper's "this unicast might
// either be aborted or be re-routed ... after all the safety levels are
// stabilized". A source killed at injection sends nothing
// (kDroppedSource).
#pragma once

#include <vector>

#include "core/unicast.hpp"
#include "sim/network.hpp"

namespace slcube::sim {

/// A core route result plus the two sim times it ran between.
struct SimRouteResult : core::RouteResult {
  SimTime injected_at = 0;
  SimTime finished_at = 0;

  [[nodiscard]] SimTime latency() const noexcept {
    return finished_at - injected_at;
  }
};

/// A failure scheduled to strike while the packet is in flight.
struct ScheduledFailure {
  SimTime time = 0;
  NodeId node = 0;
};

/// Route one unicast over the (normally stabilized) network. `failures`
/// strike in time order: those due at injection before the source
/// decides, each later one just before the network judges the first hop
/// arriving at or after its time; those due after the route ends never
/// strike. Pass {} for the steady-state case. `options` supplies the
/// tie-break; the route's events go to the network's sink (`options.trace`
/// must be null or that sink), beside the packet's own sends and drops.
SimRouteResult route_unicast_sim(Network& net, NodeId s, NodeId d,
                                 std::vector<ScheduledFailure> failures = {},
                                 const core::UnicastOptions& options = {});

}  // namespace slcube::sim
