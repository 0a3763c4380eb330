// SafetyOracle — a stateful safety-level table with incremental updates.
//
// compute_safety_levels() rebuilds the whole Theorem-1 fixed point from
// scratch: an O(N) initialisation, a peel over the non-safe nodes, and
// the O(N · n) Definition-1 check. That is the right cost for an
// independent fault sample, so sweeps build every table that way. Under
// churn, though, the paper's own state-change discipline (Section 2.2,
// run as message traffic by sim/protocol_gs.cpp's recompute-and-cascade
// kernel) shows that a single fault event only perturbs levels along a
// bounded monotone cascade: seed the changed node's neighborhood,
// recompute a node only when one of its inputs actually moved.
// SafetyOracle is the static-core analogue of that discipline — same
// fixed point, no messages.
//
// Correctness rests on two facts:
//  * node_status is monotone in its inputs, so after marking new faults
//    (levels forced to 0) every recomputation can only LOWER a level,
//    and after marking recoveries (rejoining at 0, pointwise below the
//    new fixed point) every recomputation can only RAISE one. Each
//    monotone phase therefore terminates — a level moves at most n
//    times — which is why apply() splits a mixed batch into a falling
//    phase (all additions) and a rising phase (all removals).
//  * Theorem 1: the consistent assignment is unique. Any quiescent
//    state (every healthy node equals its implied level) IS the from-
//    scratch fixed point, so incremental results are bit-identical to
//    compute_safety_levels — which test_safety_oracle verifies over
//    randomized add/remove interleavings.
//
// The cascade computes on a byte per node (level_bytes()): every
// recomputation reads n neighbor levels, and a byte load is cheaper than
// a 5-bit slot decode. The packed levels() that routers walk and
// snapshots copy follow every change through set_level, so the two
// tables always hold the same levels (DESIGN.md, "Packed safety
// storage").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/global_status.hpp"
#include "core/safety.hpp"

namespace slcube::core {

class SafetyOracle {
 public:
  /// Fault-free start: every node at the fixed-point level n.
  explicit SafetyOracle(const topo::Hypercube& cube);

  /// Start at the fixed point of an arbitrary fault set (one
  /// compute_safety_levels peel).
  SafetyOracle(const topo::Hypercube& cube, const fault::FaultSet& faults);

  [[nodiscard]] const topo::Hypercube& cube() const noexcept { return cube_; }
  [[nodiscard]] const fault::FaultSet& faults() const noexcept {
    return faults_;
  }
  /// The current Theorem-1 fixed point for faults().
  [[nodiscard]] const SafetyLevels& levels() const noexcept { return levels_; }
  /// The same levels, one byte per node: the table the cascade reads.
  [[nodiscard]] std::span<const Level> level_bytes() const noexcept {
    return bytes_;
  }

  /// Healthy node `a` dies; the falling cascade restores the fixed point.
  void add_fault(NodeId a);

  /// Faulty node `a` recovers; the rising cascade restores the fixed
  /// point (the node rejoins at 0 — see Network::recover_node for why
  /// pessimism is what makes the rejoin monotone).
  void remove_fault(NodeId a);

  /// Batched update: every node in `additions` (healthy) dies and every
  /// node in `removals` (faulty) recovers. Additions are applied first
  /// (one falling cascade), then removals (one rising cascade), each
  /// phase seeding the worklist in list order — cheaper than one cascade
  /// per node and still bit-identical to a from-scratch recomputation.
  void apply(std::span<const NodeId> additions,
             std::span<const NodeId> removals);

  /// Work counters since construction (cost-model instrumentation; see
  /// EXPERIMENTS.md "Incremental oracle cost model").
  struct Stats {
    std::uint64_t recomputes = 0;     ///< node_status evaluations
    std::uint64_t level_changes = 0;  ///< recomputations that moved a level
    std::uint64_t cascades = 0;       ///< monotone phases drained
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// When non-null, the id of every node whose *stored* level moves is
  /// appended: cascade updates and the forced zeroes of new faults.
  /// Duplicates are possible; the caller owns clearing the vector between
  /// batches. This is the delta feed EgsOracle uses to resync the EGS
  /// self view without rescanning the cube.
  void set_change_log(std::vector<NodeId>* log) noexcept { change_log_ = log; }

 private:
  /// The one writer body behind apply(), add_fault() and remove_fault().
  void update(std::span<const NodeId> additions,
              std::span<const NodeId> removals);
  /// Queue `a` for recomputation (dedup; faulty nodes never enqueue).
  void push(NodeId a);
  /// Store `v` as a's level in both tables.
  void set_level(NodeId a, Level v);
  /// Drain the worklist: recompute each queued node, propagate changes
  /// to its neighbors until quiescence.
  void cascade();

  topo::Hypercube cube_;
  fault::FaultSet faults_;
  SafetyLevels levels_;
  std::vector<Level> bytes_;  ///< levels_ unpacked, one byte per node
  std::vector<NodeId> worklist_;
  std::vector<bool> queued_;  ///< worklist membership, one bit per node
  std::vector<NodeId>* change_log_ = nullptr;
  Stats stats_;
};

}  // namespace slcube::core
