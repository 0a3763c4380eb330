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
// The cascade computes on counts, not on the neighbors' levels. Each node
// keeps a count record (safety.hpp): how many of its neighbors sit at each
// level 0..n-2, in count_words(n) words — 16 bytes per node at Q10–Q17,
// 24 at Q18–Q20. set_level, the one level writer, moves the count at
// each of the changed node's n neighbors, and a recomputation reads only
// the popped node's own record (level_from_counts), so neighbor probes
// are paid per level change instead of per recomputation. The records are
// built on the first writer call, never at construction, so an oracle
// nobody writes never allocates them. Levels also stay one byte per node
// (level_bytes(), what the change compares against and the counts are
// built from) and packed (levels(), what routers walk and snapshots
// copy); set_level keeps all three in step (DESIGN.md, "Incremental
// safety maintenance" and "Packed safety storage").
#pragma once

#include <cstdint>
#include <optional>
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
  /// The same levels, one byte per node.
  [[nodiscard]] std::span<const Level> level_bytes() const noexcept {
    return bytes_;
  }
  /// Every node's count record, count_words(n) words per node in node
  /// order, over the levels in level_bytes(); nullopt until the first
  /// writer call builds them. At Q1 a built table is empty.
  [[nodiscard]] std::optional<std::span<const std::uint64_t>>
  neighbor_counts() const noexcept {
    if (!counts_) return std::nullopt;
    return std::span<const std::uint64_t>(*counts_);
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
  /// An empty batch changes nothing and builds nothing.
  void apply(std::span<const NodeId> additions,
             std::span<const NodeId> removals);

  /// Work counters since construction (cost-model instrumentation; see
  /// EXPERIMENTS.md "Incremental oracle cost model").
  struct Stats {
    std::uint64_t recomputes = 0;     ///< Definition-1 evaluations
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
  /// The first call that changes something builds the count records.
  void update(std::span<const NodeId> additions,
              std::span<const NodeId> removals);
  /// Zero-fill the count records, then count every node below n - 1 at
  /// each of its neighbors.
  void build_counts();
  /// Queue `a` for recomputation (dedup; faulty nodes never enqueue).
  void push(NodeId a);
  /// Store `v` as a's level in both tables and move its neighbors' counts.
  void set_level(NodeId a, Level v);
  /// Drain the worklist: recompute each queued node, propagate changes
  /// to its neighbors until quiescence.
  void cascade();

  topo::Hypercube cube_;
  fault::FaultSet faults_;
  SafetyLevels levels_;
  std::vector<Level> bytes_;  ///< levels_ unpacked, one byte per node
  /// Count records, built by the first writer call.
  std::optional<std::vector<std::uint64_t>> counts_;
  std::vector<NodeId> worklist_;
  std::vector<bool> queued_;  ///< worklist membership, one bit per node
  std::vector<NodeId>* change_log_ = nullptr;
  Stats stats_;
};

}  // namespace slcube::core
