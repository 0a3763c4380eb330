// svc::SnapshotOracle — the routing-as-a-service epoch layer.
//
// The paper's unicast algorithm is explicitly tolerant of *stale* safety
// tables: a node routes on whatever table it last stabilized, and the
// worst a newer fault can do is kill the message in flight (Section 2.2's
// state-change discipline re-converges afterwards). The incremental
// oracles (core::SafetyOracle / core::EgsOracle) made table maintenance
// under churn cheap, but they are strictly single-writer, single-reader
// objects. This unit turns one writer-owned oracle into a service that
// any number of router threads can read while faults keep churning — the
// RCU/epoch pattern:
//
//  * The writer thread applies fault events through its private
//    core::EgsOracle (bounded cascades, bit-identical to a from-scratch
//    run_egs — that guarantee is inherited, not re-proven here), then
//    copies the resulting tables into an immutable, refcounted Snapshot
//    and publishes it with one atomic shared_ptr store. Publication is
//    the only writer/reader synchronization point.
//  * Reader threads acquire() the current Snapshot (one atomic
//    shared_ptr load) and route against it with zero further
//    coordination: the tables inside a Snapshot never change, and the
//    refcount keeps a Snapshot alive for as long as any in-flight route
//    still holds it — readers are never blocked and never see a
//    half-updated table.
//
// Epochs are published in strictly increasing order by the single
// writer, so "snapshot A is older than snapshot B" is exactly
// A->epoch < B->epoch — which is what makes staleness a measurable
// quantity (see svc/serve.hpp and bench_service).
//
// Concurrency contract: all writer-API calls must come from one thread
// at a time (the usual single-writer discipline; unsynchronized writer
// calls from two threads are a data race on the underlying oracle).
// acquire()/epoch() are safe from any thread at any time, including
// concurrently with a publish.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/egs.hpp"
#include "core/egs_oracle.hpp"
#include "obs/trace.hpp"

namespace slcube::svc {

/// One churn event in an epoch's lineage: what the writer did to the
/// fault configuration between the parent epoch and this one. Kept on
/// the Snapshot so a stale route (decision epoch d, ground epoch g > d)
/// can be attributed to the exact churn in epochs (d, g] that aged it.
struct ChurnRecord {
  enum class Kind : std::uint8_t {
    kNodeFail,
    kNodeRecover,
    kLinkFail,
    kLinkRecover,
  };
  Kind kind = Kind::kNodeFail;
  NodeId node = 0;  ///< churned node, or the link's endpoint
  Dim dim = 0;      ///< link dimension (link kinds only)
};
[[nodiscard]] const char* to_string(ChurnRecord::Kind k);

/// One immutable published epoch: the fault configuration and both EGS
/// views, frozen at publication time. Value-semantic copies of the
/// writer's tables — a reader holding this cannot be affected by any
/// later writer activity. Bit-identical to run_egs(cube, faults, links)
/// for this epoch's configuration (pinned by test_snapshot_oracle).
struct Snapshot {
  std::uint64_t epoch = 0;
  std::uint64_t parent_epoch = 0;  ///< previous published epoch (== 0 at 0)
  /// The churn folded into this epoch (empty for epoch 0). One record
  /// for the single-toggle writer calls; the whole batch for apply().
  std::vector<ChurnRecord> lineage;
  fault::FaultSet faults;        ///< real node faults (N2 nodes healthy)
  fault::LinkFaultSet links;
  core::SafetyLevels public_view;
  core::SafetyLevels self_view;

  /// Borrowed view pair for decide_at_source_egs / route_unicast_egs.
  /// The Snapshot must outlive the call — which the shared_ptr refcount
  /// guarantees for any reader that keeps its SnapshotPtr on the stack.
  [[nodiscard]] core::EgsViews views() const noexcept {
    return core::EgsViews{public_view, self_view};
  }
};

using SnapshotPtr = std::shared_ptr<const Snapshot>;

/// The obs::EpochPublishEvent describing `snap`'s lineage (cause derived
/// from the churn records; `ts` stamped with the epoch number). Scripted
/// workloads that serve on a different time axis re-stamp `ts`.
[[nodiscard]] obs::EpochPublishEvent make_epoch_event(const Snapshot& snap);

class SnapshotOracle {
 public:
  /// Fault-free start; epoch 0 is published immediately.
  explicit SnapshotOracle(const topo::Hypercube& cube);

  /// Start at the fixed point of an arbitrary configuration (one full
  /// run_egs worth of work), published as epoch 0.
  SnapshotOracle(const topo::Hypercube& cube, const fault::FaultSet& faults,
                 const fault::LinkFaultSet& link_faults);

  SnapshotOracle(const SnapshotOracle&) = delete;
  SnapshotOracle& operator=(const SnapshotOracle&) = delete;

  [[nodiscard]] const topo::Hypercube& cube() const noexcept {
    return oracle_.cube();
  }

  // --- reader API (any thread) ---------------------------------------

  /// The most recently published epoch's snapshot. Never null; the
  /// returned snapshot stays valid (and immutable) for as long as the
  /// caller holds the pointer, regardless of writer progress.
  [[nodiscard]] SnapshotPtr acquire() const {
    return current_.load(std::memory_order_acquire);
  }

  /// The epoch number of the latest published snapshot — a cheaper probe
  /// than acquire() when only "did anything change?" is needed.
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

  // --- writer API (one thread) ---------------------------------------
  // Each call restores the two-view fixed point incrementally via the
  // underlying core::EgsOracle and publishes exactly one new epoch.

  void add_fault(NodeId a);
  void remove_fault(NodeId a);
  void fail_link(NodeId a, Dim d);
  void recover_link(NodeId a, Dim d);

  /// Batched update: one cascade pass, one published epoch — the churn
  /// writer's steady-state entry point.
  void apply(std::span<const NodeId> node_toggles,
             std::span<const core::EgsOracle::LinkToggle> link_toggles);

  /// Writer-side introspection (cascade cost model, current fault sets).
  /// Writer thread only — readers must use acquire().
  [[nodiscard]] const core::EgsOracle& writer_oracle() const noexcept {
    return oracle_;
  }

  /// Emit an obs::EpochPublishEvent on every publish (nullptr to stop).
  /// Writer thread only; the sink is invoked from publish(), so it must
  /// tolerate the writer thread (thread-safe sinks always do). The
  /// event's `ts` is stamped with the epoch number — scripted workloads
  /// that serve on a different axis re-stamp it themselves.
  void set_trace(obs::TraceSink* sink) noexcept { trace_ = sink; }

  struct Stats {
    std::uint64_t epochs_published = 0;  ///< publishes after construction
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  /// Freeze the oracle's current tables into a Snapshot and publish it
  /// as the next epoch (release store; readers acquire).
  void publish();

  core::EgsOracle oracle_;
  std::uint64_t next_epoch_ = 0;  ///< writer-private publish counter
  std::vector<ChurnRecord> pending_;  ///< lineage for the next publish
  obs::TraceSink* trace_ = nullptr;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<SnapshotPtr> current_;
  Stats stats_;
};

}  // namespace slcube::svc
