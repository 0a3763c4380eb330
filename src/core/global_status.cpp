#include "core/global_status.hpp"

namespace slcube::core {

namespace {

/// One synchronous round: recompute every healthy node's level from the
/// previous-round snapshot `cur` into `next`, both a byte per node.
/// Returns how many nodes changed.
std::uint64_t gs_round(const topo::Hypercube& cube,
                       const fault::FaultSet& faults,
                       std::span<const Level> cur, std::span<Level> next) {
  std::uint64_t changed = 0;
  const auto end = static_cast<NodeId>(cube.num_nodes());
  for (NodeId a = 0; a < end; ++a) {
    if (faults.is_faulty(a)) continue;
    const Level updated = implied_level(cube, faults, cur, a);
    next[a] = updated;
    changed += updated != cur[a] ? 1u : 0u;
  }
  return changed;
}

}  // namespace

GsResult run_gs(const topo::Hypercube& cube, const fault::FaultSet& faults,
                const GsOptions& options) {
  const unsigned n = cube.dimension();
  GsResult result;
  // The rounds compute on two byte tables; the result is packed once.
  std::vector<Level> cur(
      static_cast<std::size_t>(cube.num_nodes()),
      options.pessimistic_start ? Level{0} : static_cast<Level>(n));
  faults.for_each_faulty([&](NodeId a) { cur[a] = 0; });

  // Synchronous rounds: every healthy node recomputes from the previous
  // round's snapshot (the paper's parbegin/parend). From the optimistic
  // start levels only fall; from the pessimistic start only rise; either
  // way the monotone kernel reaches the unique fixed point of Theorem 1.
  std::vector<Level> next = cur;
  // Safety valve far above any possible stabilization time: each healthy
  // node changes at most n times and every non-final round changes at
  // least one node.
  const std::uint64_t hard_cap = cube.num_nodes() * n + 1;
  for (std::uint64_t round = 1;; ++round) {
    if (options.max_rounds != 0 && round > options.max_rounds) break;
    SLC_ASSERT_MSG(round <= hard_cap, "GS failed to converge");
    const std::uint64_t changed = gs_round(cube, faults, cur, next);
    if (changed == 0) {
      result.stabilized = true;
      break;
    }
    std::swap(cur, next);
    result.changes_per_round.push_back(changed);
  }
  result.rounds_to_stabilize =
      static_cast<unsigned>(result.changes_per_round.size());
  result.levels = SafetyLevels(n, cube.num_nodes(), 0);
  for (NodeId a = 0; a < cur.size(); ++a) result.levels.set(a, cur[a]);
  if (result.stabilized) {
    SLC_ENSURE_MSG(is_consistent(cube, faults, result.levels),
                   "stabilized GS must satisfy Definition 1");
  }
  return result;
}

SafetyLevels compute_safety_levels(const topo::Hypercube& cube,
                                   const fault::FaultSet& faults) {
  const unsigned n = cube.dimension();
  // Unassigned nodes hold level n, the level a node keeps when no stage
  // claims it. low[b] counts b's neighbors assigned in stages before the
  // one being built; kAssigned marks b as taken (faulty or peeled), which
  // spares the packed level read on every probe.
  constexpr std::uint8_t kAssigned = 0xFF;
  static_assert(topo::Hypercube::kMaxDimension < kAssigned);
  SafetyLevels levels(n, cube.num_nodes(), static_cast<Level>(n));
  std::vector<std::uint8_t> low(static_cast<std::size_t>(cube.num_nodes()),
                                0);
  std::vector<NodeId> frontier;
  frontier.reserve(static_cast<std::size_t>(faults.count()));
  faults.for_each_faulty([&](NodeId a) {
    levels.set(a, 0);
    low[a] = kAssigned;
    frontier.push_back(a);
  });
  // Pass k builds stage k+1 from stage k's frontier. An unassigned b
  // enters it with low[b] <= k neighbors at level <= k-1 (k+1 would have
  // met stage k's threshold). Raising low[b] for the frontier's level-k
  // nodes makes it count level <= k, and b takes level k+1 at the
  // increment that reaches k+2; only the frontier's neighbors are raised,
  // so only they can qualify. Stage k+1's own nodes raise their neighbors
  // on the next pass: the proof assigns a whole stage at once, from the
  // levels of earlier stages alone.
  std::vector<NodeId> next;
  for (unsigned k = 0; k + 1 < n && !frontier.empty(); ++k) {
    next.clear();
    for (const NodeId a : frontier) {
      cube.for_each_neighbor(a, [&](Dim, NodeId b) {
        if (low[b] == kAssigned || ++low[b] != k + 2) return;
        low[b] = kAssigned;
        levels.set(b, static_cast<Level>(k + 1));
        next.push_back(b);
      });
    }
    std::swap(frontier, next);
  }
  SLC_ENSURE_MSG(is_consistent(cube, faults, levels),
                 "the peeled assignment must satisfy Definition 1");
  return levels;
}

}  // namespace slcube::core
