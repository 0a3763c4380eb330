// Algorithm GLOBAL_STATUS (GS) — the paper's synchronous iterative
// computation of safety levels.
//
// Initially every nonfaulty node is n-safe and every faulty node 0-safe
// (so a fault-free cube needs no work at all). Each round, every healthy
// node recomputes NODE_STATUS from its neighbors' previous-round levels.
// The Corollary to Property 1 guarantees stabilization within n-1 rounds
// for every fault distribution, including disconnected cubes.
//
// run_gs is the centralized execution that counts rounds (Fig. 2, ROUNDS);
// src/sim runs the same protocol message-by-message over the discrete-
// event simulator, and tests assert the two agree bit-for-bit. Tables that
// only need the fixed point come from compute_safety_levels, which reaches
// it without rounds.
#pragma once

#include <cstdint>
#include <vector>

#include "core/safety.hpp"

namespace slcube::core {

struct GsResult {
  SafetyLevels levels;
  /// Rounds after which no level changed anymore. 0 means the initial
  /// assignment was already stable (e.g. fault-free cube). This is the
  /// quantity Fig. 2 plots.
  unsigned rounds_to_stabilize = 0;
  /// changes_per_round[r] = number of nodes whose level changed in round
  /// r+1. Empty trailing rounds are not stored.
  std::vector<std::uint64_t> changes_per_round;
  /// True iff a quiescent round was reached (always true when
  /// GsOptions::max_rounds == 0).
  bool stabilized = false;
};

struct GsOptions {
  /// Upper bound on rounds (the paper's D). 0 means "run to quiescence"
  /// (a round with no changes), which Property 1 bounds by n-1 changing
  /// rounds for the paper's optimistic start. A finite cap below the
  /// stabilization point deliberately yields *unstabilized* levels, used
  /// by robustness experiments; GsResult::stabilized reports which case
  /// occurred.
  unsigned max_rounds = 0;
  /// Start every healthy node at this level instead of n (the paper's
  /// choice). The all-0 "pessimistic" start is an ablation (DESIGN.md
  /// choice #2); GS converges to the same unique fixed point from above
  /// (n-start) — the 0-start needs the stabilization loop to keep
  /// running while levels *rise*, which plain GS also handles.
  bool pessimistic_start = false;
};

/// Run GS to stabilization (or the round cap).
[[nodiscard]] GsResult run_gs(const topo::Hypercube& cube,
                              const fault::FaultSet& faults,
                              const GsOptions& options = {});

/// The Theorem-1 fixed point without the rounds: the existence
/// construction from the proof, run as a peel (DESIGN.md, "Peeling
/// build"). Stage k gives level k to every unassigned healthy node with
/// at least k+1 neighbors at level <= k-1, and only neighbors of stage
/// k-1's nodes can qualify, so the stages cost O((faults + non-safe
/// nodes) * n) after an O(N) initialisation. It ends with run_gs's
/// Definition-1 postcondition, is_consistent: one blocked pass that
/// clears most safe nodes from three neighbor counts and gives every
/// other node the full test. By uniqueness the result is bit-identical
/// to run_gs's levels from either start.
[[nodiscard]] SafetyLevels compute_safety_levels(
    const topo::Hypercube& cube, const fault::FaultSet& faults);

}  // namespace slcube::core
