#include "exp/adversarial.hpp"

#include "common/contracts.hpp"
#include "core/global_status.hpp"
#include "core/unicast.hpp"

namespace slcube::exp {

const char* to_string(Objective o) {
  switch (o) {
    case Objective::kSourceRejects:
      return "source-rejects";
    case Objective::kDetours:
      return "detours";
  }
  SLC_UNREACHABLE("bad Objective");
}

namespace {

/// Substream ids within the search's seed: probes are drawn outside the
/// restart family so adding restarts never reshuffles the exam.
constexpr std::uint64_t kProbeStream = 0xAD0;
constexpr std::uint64_t kRestartStream = 0xAD1;

struct RestartOut {
  fault::FaultSet best;
  std::uint64_t best_score = 0;
  std::uint64_t init_score = 0;
  std::uint64_t evals = 0;
};

}  // namespace

std::vector<ProbePair> make_probes(const topo::Hypercube& cube,
                                   std::uint64_t seed, std::size_t count) {
  Xoshiro256ss rng = substream(seed, kProbeStream, 0);
  std::vector<ProbePair> probes(count);
  for (ProbePair& p : probes) {
    p.s = static_cast<NodeId>(rng.below(cube.num_nodes()));
    do {
      p.d = static_cast<NodeId>(rng.below(cube.num_nodes()));
    } while (p.d == p.s);
  }
  return probes;
}

std::uint64_t score_placement(const topo::Hypercube& cube,
                              const core::SafetyLevels& levels,
                              const fault::FaultSet& faults,
                              const std::vector<ProbePair>& probes,
                              Objective objective) {
  std::uint64_t score = 0;
  for (const ProbePair& p : probes) {
    if (faults.is_faulty(p.s) || faults.is_faulty(p.d)) continue;
    const core::SourceDecision dec =
        core::decide_at_source(cube, levels, p.s, p.d);
    if (objective == Objective::kSourceRejects) {
      score += dec.feasible() ? 0u : 1u;
    } else {
      // The spare detour fires iff C3 is the only open condition.
      score += (!dec.optimal_feasible() && dec.c3) ? 1u : 0u;
    }
  }
  return score;
}

AdversarialResult adversarial_search(const topo::Hypercube& cube,
                                     const AdversarialConfig& config) {
  SLC_EXPECT_MSG(config.fault_count + 2 <= cube.num_nodes(),
                 "placement must leave room for healthy probe endpoints");
  SLC_EXPECT(config.probes > 0 && config.restarts > 0);
  const std::vector<ProbePair> probes =
      make_probes(cube, config.seed, config.probes);

  EngineOptions engine_options;
  engine_options.threads = config.threads;
  engine_options.seed = config.seed;
  SweepEngine engine(engine_options);

  // Each proposal's table is built from scratch by one peel: a table is
  // a pure function of its fault set (Theorem 1), so nothing carries
  // over from one proposal to the next.
  auto results = engine.map<RestartOut>(
      kRestartStream, config.restarts, [&](TrialContext& ctx) {
        // Initial random placement — also the control arm.
        std::vector<NodeId> placed;
        placed.reserve(config.fault_count);
        fault::FaultSet current(cube.num_nodes());
        for (const std::uint64_t a : sample_without_replacement(
                 cube.num_nodes(), config.fault_count, ctx.rng)) {
          placed.push_back(static_cast<NodeId>(a));
          current.mark_faulty(static_cast<NodeId>(a));
        }

        RestartOut out;
        std::uint64_t score =
            score_placement(cube, core::compute_safety_levels(cube, current),
                            current, probes, config.objective);
        ++out.evals;
        out.init_score = score;
        out.best = current;
        out.best_score = score;

        const std::size_t total_moves = config.greedy_moves + config.sa_moves;
        double temperature = config.sa_t0;
        for (std::size_t move = 0; move < total_moves; ++move) {
          // Propose swapping one placed fault for a random healthy node.
          const std::size_t slot = ctx.rng.below(placed.size());
          NodeId incoming;
          do {
            incoming = static_cast<NodeId>(ctx.rng.below(cube.num_nodes()));
          } while (current.is_faulty(incoming));
          fault::FaultSet candidate = current;
          candidate.mark_healthy(placed[slot]);
          candidate.mark_faulty(incoming);

          const std::uint64_t cand_score = score_placement(
              cube, core::compute_safety_levels(cube, candidate), candidate,
              probes, config.objective);
          ++out.evals;

          bool accept;
          if (move < config.greedy_moves) {
            accept = cand_score > score;
          } else {
            // Annealing tail: Barker acceptance T / (T + deficit) —
            // division only, bit-deterministic across platforms.
            if (cand_score >= score) {
              accept = true;
            } else {
              const double deficit = static_cast<double>(score - cand_score);
              accept =
                  ctx.rng.uniform01() < temperature / (temperature + deficit);
            }
            temperature *= config.sa_cooling;
          }
          if (accept) {
            placed[slot] = incoming;
            current = std::move(candidate);
            score = cand_score;
            if (score > out.best_score) {
              out.best_score = score;
              out.best = current;
            }
          }
        }
        return out;
      });

  AdversarialResult result;
  result.best = fault::FaultSet(cube.num_nodes());
  result.restart_scores.reserve(results.size());
  std::uint64_t init_sum = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RestartOut& r = results[i];
    result.restart_scores.push_back(r.best_score);
    if (i == 0 || r.best_score > result.best_score) {
      result.best_score = r.best_score;
      result.best_restart = i;
      result.best = r.best;
    }
    result.random_best = std::max(result.random_best, r.init_score);
    init_sum += r.init_score;
    result.evals += r.evals;
  }
  result.random_mean =
      static_cast<double>(init_sum) / static_cast<double>(results.size());
  return result;
}

}  // namespace slcube::exp
