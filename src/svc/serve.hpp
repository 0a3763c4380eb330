// svc — the serving path: route one unicast whose *decisions* come from
// an immutable epoch snapshot while its *traversal* is judged against
// the live (possibly newer) epoch.
//
// This is the paper's stale-table story made operational. A message's
// routing decisions (C1/C2/C3 at the source, max-level preferred /
// spare choices at every hop — exactly the Section-3/4.1 algorithm of
// core::route_unicast_egs) are functions of the table the router
// stabilized on, i.e. the snapshot it acquired. Whether a hop actually
// lands is a property of the *current* network: a node or link that
// failed after the snapshot was published kills the message at that hop
// even though the stale table said it was safe. serve_route() separates
// the two roles cleanly:
//
//   decision snapshot — feasibility + every hop choice (never consulted
//     for liveness of the traversal);
//   ground truth      — re-read at the source and before every hop from
//     the latest published epoch; a hop onto a ground-faulty node or
//     across a ground-faulty link drops the message.
//
// The walk is core/walk.hpp's, on the EGS view of the decision snapshot
// with a snapshot ground judge, so when ground == decision (no churn
// since acquire) it reproduces core::route_unicast_egs bit-for-bit —
// same status, same path, same trace — which test_snapshot_oracle pins.
// When they differ, the result records how far behind the decision epoch
// was and what the staleness cost: delivered anyway, delivered on the
// H+2 spare detour, or dropped.
#pragma once

#include <cstdint>

#include "core/egs.hpp"
#include "obs/trace.hpp"
#include "svc/snapshot_oracle.hpp"

namespace slcube::svc {

/// Serving statuses are core::RouteStatus: the core router's four plus
/// kDroppedSource / kDroppedNode / kDroppedLink, whose numeric codes are
/// what digests and obs::SamplingSink fold.
using ServeStatus = core::RouteStatus;

/// A core route result plus the two epochs it ran between.
struct ServeResult : core::RouteResult {
  std::uint64_t decision_epoch = 0;
  /// Highest epoch consulted as ground truth during the walk (epochs are
  /// published in increasing order, so this is simply the last one).
  std::uint64_t ground_epoch = 0;

  /// The route was decided on an epoch older than the ground truth it
  /// ran against — the measured form of the paper's stale-table regime.
  [[nodiscard]] bool stale() const noexcept {
    return ground_epoch > decision_epoch;
  }
};

struct ServeOptions {
  /// When non-null, the walk emits the same event chain as
  /// route_unicast_egs (source decision, hops, terminal status); a
  /// staleness drop adds the lost message's send/drop pair and ends in
  /// its dropped-source/node/link status, the shape obs::AuditSink
  /// checks for a message that died in flight.
  obs::TraceSink* trace = nullptr;
};

/// Deterministic core: decisions on `decision`, every traversal judged
/// against the fixed `ground`. Both may be the same snapshot (the
/// no-churn case). `s` and `d` must be healthy in `decision` — routes
/// are planned by nodes that believe both endpoints exist.
[[nodiscard]] ServeResult serve_route(const Snapshot& decision,
                                      const Snapshot& ground, NodeId s,
                                      NodeId d,
                                      const ServeOptions& options = {});

/// Live serving against a pre-acquired decision snapshot: re-acquires
/// the latest epoch at launch and before every hop, so a writer
/// publishing mid-route is observed exactly the way a real network
/// observes mid-flight faults.
[[nodiscard]] ServeResult serve_route(const SnapshotOracle& oracle,
                                      const SnapshotPtr& decision, NodeId s,
                                      NodeId d,
                                      const ServeOptions& options = {});

}  // namespace slcube::svc
