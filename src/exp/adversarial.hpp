// slcube::exp — adversarial fault search: instead of asking "how does
// the algorithm fare under random faults?" (the paper's Fig. 2 setup),
// ask "how bad can `fault_count` faults be MADE to be?". A local search
// over fault placements — greedy descent into a simulated-annealing
// tail, restarted from independent random placements — maximizes an
// objective scored against a fixed probe set of source/destination
// pairs:
//
//  * kSourceRejects — probes whose source decision fails C1, C2 and C3
//    (the message is never sent although both endpoints are alive);
//  * kDetours       — probes forced onto the H + 2 spare detour
//    (C3-only decisions: delivered, but strictly suboptimally).
//
// Restarts are mapped over the SweepEngine, one substream per restart,
// and reduced in restart order — results are bit-identical at any
// --threads. The score of each restart's *initial* random placement
// doubles as the random-placement baseline the search must beat, so
// every AdversarialResult carries its own control arm.
//
// Acceptance in the annealing tail uses the Barker criterion
// T / (T + deficit) rather than exp(-deficit/T): it needs only IEEE
// division, so the accept/reject sequence — and therefore the checked-in
// digest — cannot drift across libm implementations.
#pragma once

#include <cstdint>
#include <vector>

#include "core/safety.hpp"
#include "exp/sweep_engine.hpp"
#include "fault/fault_set.hpp"

namespace slcube::exp {

enum class Objective : std::uint8_t {
  kSourceRejects,  ///< maximize probes refused at the source
  kDetours,        ///< maximize probes forced onto the H+2 detour
};
[[nodiscard]] const char* to_string(Objective o);

/// One scored unicast request. Probes are fixed before the search so
/// every placement is graded on the same exam.
struct ProbePair {
  NodeId s = 0;
  NodeId d = 0;
};

struct AdversarialConfig {
  std::uint64_t fault_count = 12;
  Objective objective = Objective::kSourceRejects;
  std::size_t probes = 96;        ///< probe pairs scored per placement
  std::size_t restarts = 8;       ///< independent search restarts
  std::size_t greedy_moves = 48;  ///< strict-improvement phase length
  std::size_t sa_moves = 160;     ///< annealing phase length
  double sa_t0 = 3.0;             ///< initial temperature (score units)
  double sa_cooling = 0.97;       ///< temperature decay per move
  std::uint64_t seed = 0x5EED0A11;
  unsigned threads = 0;           ///< SweepEngine workers; 0 = all cores
};

struct AdversarialResult {
  fault::FaultSet best;            ///< the worst placement found
  std::uint64_t best_score = 0;
  std::size_t best_restart = 0;    ///< restart index that found it
  /// Per-restart best scores in restart order (digest fodder).
  std::vector<std::uint64_t> restart_scores;
  /// The random-placement control arm: the initial placement of every
  /// restart, scored before any search move.
  std::uint64_t random_best = 0;
  double random_mean = 0.0;
  std::uint64_t evals = 0;         ///< placements scored in total
};

/// The probe set for (seed, count): uniform ground-distinct pairs, a
/// pure function of its arguments (placement-independent).
[[nodiscard]] std::vector<ProbePair> make_probes(const topo::Hypercube& cube,
                                                 std::uint64_t seed,
                                                 std::size_t count);

/// Score one placement against the probes: the number of probes with
/// both endpoints healthy whose source decision matches the objective.
[[nodiscard]] std::uint64_t score_placement(const topo::Hypercube& cube,
                                            const core::SafetyLevels& levels,
                                            const fault::FaultSet& faults,
                                            const std::vector<ProbePair>& probes,
                                            Objective objective);

/// Run the full search. Deterministic for a fixed (cube, config) at any
/// config.threads.
[[nodiscard]] AdversarialResult adversarial_search(
    const topo::Hypercube& cube, const AdversarialConfig& config);

}  // namespace slcube::exp
