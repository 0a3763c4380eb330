// workload::next_churn — the node/link churn policy of the serving
// workloads: ServiceScript's scripted epochs, bench_service's live
// writer and bench_egs_oracle's missions all draw their fault events
// here, so one seeded generator yields one event sequence everywhere.
//
// Each event is one svc::ChurnRecord. A coin picks a node or a link
// event. Either kind repairs a random standing fault once 2n of them
// stand, or past 4 with probability 0.3; otherwise it fails a victim
// drawn by rejection sampling. The caller's fault sets move with the
// event; applying it to a table (apply_churn) is the caller's choice.
#pragma once

#include "common/rng.hpp"
#include "fault/fault_set.hpp"
#include "fault/link_fault_set.hpp"
#include "svc/snapshot_oracle.hpp"
#include "topology/hypercube.hpp"

namespace slcube::workload {

/// Draw the next churn event from `rng`, apply it to `faults` and
/// `links`, and return it.
[[nodiscard]] svc::ChurnRecord next_churn(const topo::Hypercube& cube,
                                          fault::FaultSet& faults,
                                          fault::LinkFaultSet& links,
                                          Xoshiro256ss& rng);

/// Apply `ev` through the single-event writer calls that core::EgsOracle
/// and svc::SnapshotOracle share.
template <typename Writer>
void apply_churn(Writer& writer, const svc::ChurnRecord& ev) {
  switch (ev.kind) {
    case svc::ChurnRecord::Kind::kNodeFail:
      writer.add_fault(ev.node);
      break;
    case svc::ChurnRecord::Kind::kNodeRecover:
      writer.remove_fault(ev.node);
      break;
    case svc::ChurnRecord::Kind::kLinkFail:
      writer.fail_link(ev.node, ev.dim);
      break;
    case svc::ChurnRecord::Kind::kLinkRecover:
      writer.recover_link(ev.node, ev.dim);
      break;
  }
}

}  // namespace slcube::workload
