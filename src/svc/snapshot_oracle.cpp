#include "svc/snapshot_oracle.hpp"

#include "common/contracts.hpp"
#include "obs/profiler.hpp"

namespace slcube::svc {

const char* to_string(ChurnRecord::Kind k) {
  switch (k) {
    case ChurnRecord::Kind::kNodeFail:
      return "node-fail";
    case ChurnRecord::Kind::kNodeRecover:
      return "node-recover";
    case ChurnRecord::Kind::kLinkFail:
      return "link-fail";
    case ChurnRecord::Kind::kLinkRecover:
      return "link-recover";
  }
  SLC_UNREACHABLE("bad ChurnRecord::Kind");
}

SnapshotOracle::SnapshotOracle(const topo::Hypercube& cube) : oracle_(cube) {
  publish();
  stats_ = {};  // epoch 0 is construction, not a churn event
}

SnapshotOracle::SnapshotOracle(const topo::Hypercube& cube,
                               const fault::FaultSet& faults,
                               const fault::LinkFaultSet& link_faults)
    : oracle_(cube, faults, link_faults) {
  publish();
  stats_ = {};
}

void SnapshotOracle::publish() {
  const obs::StageScope stage("svc.publish");
  // next_epoch_ is writer-private; construction publishes epoch 0.
  const std::uint64_t epoch = next_epoch_++;
  const std::uint64_t parent = epoch == 0 ? 0 : epoch - 1;
  auto snap = std::make_shared<const Snapshot>(
      Snapshot{epoch, parent, std::move(pending_), oracle_.faults(),
               oracle_.links(), oracle_.public_view(), oracle_.self_view()});
  pending_.clear();  // moved-from; make the empty state explicit
  // Publication order: snapshot pointer first, then the epoch probe.
  // A reader that observes epoch() == e is therefore guaranteed that
  // acquire() returns a snapshot with epoch >= e.
  current_.store(snap, std::memory_order_release);
  epoch_.store(epoch, std::memory_order_release);
  ++stats_.epochs_published;
  if (trace_ != nullptr) trace_->on_event(make_epoch_event(*snap));
}

obs::EpochPublishEvent make_epoch_event(const Snapshot& snap) {
  obs::EpochPublishEvent ev;
  ev.epoch = snap.epoch;
  ev.parent = snap.parent_epoch;
  ev.churn = snap.lineage.size();
  ev.faults = snap.faults.count();
  ev.links = snap.links.count();
  ev.ts = snap.epoch;
  if (snap.lineage.empty()) {
    ev.cause = "init";
  } else if (snap.lineage.size() > 1) {
    ev.cause = "batch";
  } else {
    const ChurnRecord& rec = snap.lineage.front();
    ev.cause = to_string(rec.kind);
    ev.node = static_cast<std::int64_t>(rec.node);
    if (rec.kind == ChurnRecord::Kind::kLinkFail ||
        rec.kind == ChurnRecord::Kind::kLinkRecover) {
      ev.dim = static_cast<int>(rec.dim);
    }
  }
  return ev;
}

void SnapshotOracle::add_fault(NodeId a) {
  oracle_.add_fault(a);
  pending_.push_back({ChurnRecord::Kind::kNodeFail, a, 0});
  publish();
}

void SnapshotOracle::remove_fault(NodeId a) {
  oracle_.remove_fault(a);
  pending_.push_back({ChurnRecord::Kind::kNodeRecover, a, 0});
  publish();
}

void SnapshotOracle::fail_link(NodeId a, Dim d) {
  oracle_.fail_link(a, d);
  pending_.push_back({ChurnRecord::Kind::kLinkFail, a, d});
  publish();
}

void SnapshotOracle::recover_link(NodeId a, Dim d) {
  oracle_.recover_link(a, d);
  pending_.push_back({ChurnRecord::Kind::kLinkRecover, a, d});
  publish();
}

void SnapshotOracle::apply(
    std::span<const NodeId> node_toggles,
    std::span<const core::EgsOracle::LinkToggle> link_toggles) {
  // An empty batch changes no table, so it publishes no epoch.
  if (node_toggles.empty() && link_toggles.empty()) return;
  // A toggle flips membership: record the direction it landed on.
  for (const NodeId node : node_toggles) {
    const bool fails_now = !oracle_.faults().is_faulty(node);
    pending_.push_back({fails_now ? ChurnRecord::Kind::kNodeFail
                                  : ChurnRecord::Kind::kNodeRecover,
                        node, 0});
  }
  for (const auto& [node, dim] : link_toggles) {
    const bool fails_now = !oracle_.links().is_faulty(node, dim);
    pending_.push_back({fails_now ? ChurnRecord::Kind::kLinkFail
                                  : ChurnRecord::Kind::kLinkRecover,
                        node, dim});
  }
  oracle_.apply(node_toggles, link_toggles);
  publish();
}

}  // namespace slcube::svc
