// SafetyOracle — a stateful safety-level table with incremental updates.
//
// compute_safety_levels() rebuilds the whole Theorem-1 fixed point from
// scratch: an O(N) initialisation, a peel over the non-safe nodes, and
// the O(N · n) Definition-1 check, paid again for every sampled
// configuration of a sweep. But the paper's own state-change
// discipline (Section 2.2, run as message traffic by
// sim/protocol_gs.cpp's recompute-and-cascade kernel) shows that a
// single fault event only perturbs levels along a bounded monotone
// cascade: seed the changed node's neighborhood, recompute a node only
// when one of its inputs actually moved. SafetyOracle is the static-core
// analogue of that discipline — same fixed point, no messages.
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
#pragma once

#include <cstdint>
#include <vector>

#include "core/global_status.hpp"
#include "core/safety.hpp"

namespace slcube::core {

/// Retarget cost model (measured; EXPERIMENTS.md "Incremental oracle
/// cost model"): a cascade costs roughly this many node_status
/// recomputes per toggled node, while a from-scratch GS costs a few
/// sweeps over all N nodes — so incremental retargeting only wins below
/// about N / kRetargetRebuildFactor toggles. The factor was fitted at Q10
/// against GS rounds; against the peeled rebuild the measured crossover
/// sits lower at Q14 and Q16 (EXPERIMENTS.md), and moving it is left to
/// a change with its own A/B on the live workloads.
inline constexpr std::uint64_t kRetargetRebuildFactor = 48;

/// The shared fallback predicate: both SafetyOracle::retarget and
/// EgsOracle's batched update take the from-scratch rebuild iff this
/// holds for their delta (node toggles for the former, pseudo-set
/// toggles for the latter). EgsOracle hands its rebuild to
/// SafetyOracle::retarget with exactly that pseudo delta, so sharing the
/// predicate is what guarantees the inner retarget takes the rebuild
/// branch it was promised — keep every call site on this function.
[[nodiscard]] constexpr bool retarget_prefers_rebuild(
    std::uint64_t delta_count, std::uint64_t num_nodes) noexcept {
  return delta_count * kRetargetRebuildFactor >= num_nodes;
}

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

  /// Healthy node `a` dies; the falling cascade restores the fixed point.
  void add_fault(NodeId a);

  /// Faulty node `a` recovers; the rising cascade restores the fixed
  /// point (the node rejoins at 0 — see Network::recover_node for why
  /// pessimism is what makes the rejoin monotone).
  void remove_fault(NodeId a);

  /// Batched update: every node set in `delta` toggles its fault state.
  /// Additions are applied first (one falling cascade), then removals
  /// (one rising cascade) — cheaper than n single-node cascades and
  /// still bit-identical to a from-scratch recomputation.
  void apply(const fault::FaultSet& delta);

  /// Move to an arbitrary new fault set by applying the symmetric
  /// difference with the current one — the sweep-engine entry point.
  /// When the difference is small (an evolving machine) the cascades are
  /// far below a full rebuild; when it is large (independent samples),
  /// retarget falls back to a from-scratch recomputation, so it is never
  /// asymptotically worse than compute_safety_levels.
  void retarget(const fault::FaultSet& target);

  /// Work counters since construction (cost-model instrumentation; see
  /// EXPERIMENTS.md "Incremental oracle cost model"). Accounting
  /// contract: the first three count *incremental* cascade work only —
  /// a retarget that hits the rebuild fallback bumps `rebuilds` and
  /// nothing else, and a retarget to the current fault set is a free
  /// no-op (no counter moves, no change-log entries).
  struct Stats {
    std::uint64_t recomputes = 0;     ///< node_status evaluations
    std::uint64_t level_changes = 0;  ///< recomputations that moved a level
    std::uint64_t cascades = 0;       ///< monotone phases drained
    std::uint64_t rebuilds = 0;       ///< retargets that hit the fallback
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// When non-null, the id of every node whose *stored* level moves is
  /// appended: cascade updates, the forced zeroes of new faults, and —
  /// after a retarget rebuild fallback — every node (the whole table was
  /// rewritten). Duplicates are possible; the caller owns clearing the
  /// vector between batches. This is the delta feed EgsOracle uses to
  /// resync the EGS self view without rescanning the cube.
  void set_change_log(std::vector<NodeId>* log) noexcept { change_log_ = log; }

 private:
  /// Queue `a` for recomputation (dedup; faulty nodes never enqueue).
  void push(NodeId a);
  /// Drain the worklist: recompute each queued node, propagate changes
  /// to its neighbors until quiescence.
  void cascade();

  topo::Hypercube cube_;
  fault::FaultSet faults_;
  SafetyLevels levels_;
  std::vector<NodeId> worklist_;
  std::vector<bool> queued_;  ///< worklist membership, one bit per node
  std::vector<NodeId>* change_log_ = nullptr;
  Stats stats_;
  // Reusable scratch for apply()/retarget(): per-call O(N)-ish temporaries
  // (the symmetric-difference set and the addition/removal partitions)
  // would otherwise be reallocated on every sweep trial — at Q16+ that
  // allocator thrash dominates the cascades themselves. Behavior is
  // pinned unchanged by the oracle bit-identity tests and the checked-in
  // bench digests.
  fault::FaultSet delta_scratch_;
  std::vector<NodeId> additions_scratch_;
  std::vector<NodeId> removals_scratch_;
};

}  // namespace slcube::core
