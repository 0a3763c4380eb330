// EgsOracle — a stateful EGS two-view table (Section 4.1) with
// incremental updates for node AND link fault events.
//
// run_egs() rebuilds both views from scratch: one compute_safety_levels
// build over the pseudo-fault set (real faults ∪ N2, O(N · n) with its
// Definition-1 check) plus one NODE_STATUS pass per N2 node — the cost a
// sweep pays per independent sample. A churning machine would pay it
// again for every event, though one event only moves a node or a link.
// EgsOracle is the Section-4.1 analogue of SafetyOracle: the same two
// views, restored by bounded cascades.
//
// The reduction is the observation run_egs itself is built on: the
// public view is exactly the Theorem-1 fixed point of the pseudo-fault
// set, and a link event only changes that set at its two endpoints
// (each may enter or leave N2). So a link toggle IS a node toggle of
// the pseudo set — at most two of them — and SafetyOracle's monotone
// falling/rising cascades apply unchanged (Theorem 1 gives uniqueness,
// hence bit-identity with run_egs). The self view is a single-round
// derived quantity: self(x) differs from public(x) only on N2 nodes,
// where it is NODE_STATUS over public neighbor levels (faulty-link far
// ends forced to 0). It therefore needs refreshing only at
//   * nodes whose N2 membership or fault state may have moved (the
//     toggled nodes and the endpoints of toggled links), and
//   * nodes whose stored public level moved (SafetyOracle's change
//     log), and N2 nodes adjacent to one of those — the only nodes
//     whose NODE_STATUS inputs moved.
// Everything outside that dirty set provably kept its self level, which
// is what makes the refresh O(dirty · n) instead of O(N · n).
// test_egs_oracle checks bit-identity of both views against run_egs
// after every event of randomized node/link churn.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/egs.hpp"
#include "core/safety_oracle.hpp"

namespace slcube::core {

class EgsOracle {
 public:
  /// One link event: the link between `node` and its dimension-`dim`
  /// neighbor toggles (fails if healthy, recovers if faulty) — the
  /// canonical batch currency of apply().
  struct LinkToggle {
    NodeId node = 0;
    Dim dim = 0;
  };

  /// Fault-free start: no node or link faults, both views at level n.
  explicit EgsOracle(const topo::Hypercube& cube);

  /// Start at the two-view fixed point of an arbitrary configuration
  /// (one full run_egs worth of work).
  EgsOracle(const topo::Hypercube& cube, const fault::FaultSet& faults,
            const fault::LinkFaultSet& link_faults);

  // The pseudo oracle holds a change-log pointer into this object, so
  // moving or copying would leave it dangling.
  EgsOracle(const EgsOracle&) = delete;
  EgsOracle& operator=(const EgsOracle&) = delete;

  [[nodiscard]] const topo::Hypercube& cube() const noexcept { return cube_; }
  /// Real node faults (NOT the pseudo set — N2 nodes are healthy here).
  [[nodiscard]] const fault::FaultSet& faults() const noexcept {
    return faults_;
  }
  [[nodiscard]] const fault::LinkFaultSet& links() const noexcept {
    return links_;
  }

  /// Level of each node as other nodes see it (faulty and N2 => 0).
  [[nodiscard]] const SafetyLevels& public_view() const noexcept {
    return pseudo_.levels();
  }
  /// public_view() one byte per node: the table the self-view refresh
  /// reads.
  [[nodiscard]] std::span<const Level> public_bytes() const noexcept {
    return pseudo_.level_bytes();
  }
  /// The public cascade's count records over public_bytes() (nullopt
  /// until the first writer call; SafetyOracle::neighbor_counts).
  [[nodiscard]] std::optional<std::span<const std::uint64_t>> public_counts()
      const noexcept {
    return pseudo_.neighbor_counts();
  }
  /// Level each node uses for itself (differs from public on N2 only).
  [[nodiscard]] const SafetyLevels& self_view() const noexcept {
    return self_view_;
  }
  /// Healthy node `a` has at least one adjacent faulty link.
  [[nodiscard]] bool in_n2(NodeId a) const { return in_n2_[a]; }
  /// Borrowed view pair for decide_at_source_egs / route_unicast_egs.
  [[nodiscard]] EgsViews views() const noexcept {
    return EgsViews{pseudo_.levels(), self_view_};
  }

  /// Healthy node `a` dies. If `a` was in N2 it was already
  /// pseudo-faulty and only the bookkeeping moves; otherwise one falling
  /// cascade restores the public view.
  void add_fault(NodeId a);
  /// Faulty node `a` recovers (possibly straight into N2, when adjacent
  /// faulty links remain).
  void remove_fault(NodeId a);
  /// The healthy link between `a` and its dimension-`d` neighbor fails.
  void fail_link(NodeId a, Dim d);
  /// The faulty link between `a` and its dimension-`d` neighbor heals.
  void recover_link(NodeId a, Dim d);

  /// Batched update: every listed node toggles its fault state and every
  /// listed link toggles its link-fault state, then both views are
  /// restored once — cheaper than one cascade per event and still
  /// bit-identical to run_egs on the resulting configuration.
  void apply(std::span<const NodeId> node_toggles,
             std::span<const LinkToggle> link_toggles);

  /// Work counters since construction (EXPERIMENTS.md cost model).
  struct Stats {
    std::uint64_t node_events = 0;      ///< node toggles applied
    std::uint64_t link_events = 0;      ///< link toggles applied
    std::uint64_t n2_enters = 0;        ///< healthy nodes gaining N2 status
    std::uint64_t n2_exits = 0;         ///< nodes losing N2 status
    std::uint64_t self_refreshes = 0;   ///< dirty self-view entries rewritten
    std::uint64_t self_recomputes = 0;  ///< of those, NODE_STATUS evaluations
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  /// Cascade counters of the underlying public-view oracle.
  [[nodiscard]] const SafetyOracle::Stats& pseudo_stats() const noexcept {
    return pseudo_.stats();
  }

 private:
  /// Recompute in_n2_ / self cache bookkeeping around one batch: toggle
  /// state, drive the pseudo oracle, then refresh the dirty self views.
  void apply_toggles(std::span<const NodeId> node_toggles,
                     std::span<const LinkToggle> link_toggles);
  /// Mark `a` dirty (dedup via dirty_mark_).
  void mark_dirty(NodeId a);
  /// Current self level of `a` from the (already updated) public view.
  [[nodiscard]] Level self_level_of(NodeId a);

  topo::Hypercube cube_;
  fault::FaultSet faults_;
  fault::LinkFaultSet links_;
  /// Public view: Theorem-1 oracle over the pseudo set faults_ ∪ N2.
  SafetyOracle pseudo_;
  SafetyLevels self_view_;
  std::vector<bool> in_n2_;  ///< one bit per node
  /// Pseudo-oracle change log (registered once, cleared per batch).
  std::vector<NodeId> changed_;
  /// Scratch for apply_toggles, kept across calls so that a writer call
  /// allocates nothing once warm: dirty list + one membership bit per
  /// node, the touched nodes, and the pseudo toggles in each direction.
  std::vector<NodeId> dirty_;
  std::vector<bool> dirty_mark_;
  std::vector<NodeId> touched_;
  std::vector<NodeId> to_add_;
  std::vector<NodeId> to_remove_;
  Stats stats_;
};

}  // namespace slcube::core
