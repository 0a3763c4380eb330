// TIGHT — how conservative is the safety level? Three estimators of the
// per-node optimal-reach radius, compared against the exact oracle:
//
//   scalar safety level  (the paper)        — n-1 exchange rounds
//   safety vector prefix (follow-on work)   — n-1 exchange rounds
//   exact optimal reach  (oracle)           — global knowledge
//
// plus the unicast consequence: the fraction of (source, destination)
// pairs whose optimal feasibility each estimator certifies, versus the
// fraction that is truly optimally reachable.
#include <iostream>

#include "analysis/optimal_reach.hpp"
#include "bench_util.hpp"
#include "common/stats.hpp"
#include "core/global_status.hpp"
#include "core/safety_vector.hpp"
#include "fault/injection.hpp"

int main(int argc, char** argv) {
  using namespace slcube;
  const auto opt = bench::Options::parse(
      argc, argv, bench::kTrials | bench::kSeed);
  const unsigned trials = opt.trials ? opt.trials : 120;
  const std::uint64_t seed = opt.seed ? opt.seed : 0x7167;
  bool ok = true;

  const topo::Hypercube cube(7);
  Table t("TIGHT: estimator quality vs exact optimal reach, Q7 (" +
              std::to_string(trials) + " trials/point)",
          {"faults", "level tight%", "vector tight%", "level exact-match%",
           "vector exact-match%", "pairs: level%", "pairs: vector%",
           "pairs: exact%"});
  for (std::size_t c = 1; c <= 7; ++c) t.set_precision(c, 2);

  Xoshiro256ss rng(seed);
  for (const std::uint64_t fc : {3ull, 7ull, 14ull, 24ull, 40ull}) {
    RunningStat lvl_tight, vec_tight, lvl_match, vec_match;
    Ratio lvl_pairs, vec_pairs, exact_pairs;
    for (unsigned trial = 0; trial < trials; ++trial) {
      const auto f = fault::inject_uniform(cube, fc, rng);
      const auto levels = core::compute_safety_levels(cube, f);
      const auto vectors = core::compute_safety_vectors(cube, f);
      const auto exact = analysis::optimal_reach(cube, f);
      const auto relation = analysis::optimal_reach_relation(cube, f);

      std::vector<unsigned> lvl_est(cube.num_nodes()),
          vec_est(cube.num_nodes());
      for (NodeId a = 0; a < cube.num_nodes(); ++a) {
        lvl_est[a] = levels[a];
        vec_est[a] = f.is_faulty(a) ? 0 : vectors.prefix_reach(a);
      }
      const auto ls = analysis::compare_to_exact(cube, f, exact, lvl_est);
      const auto vs = analysis::compare_to_exact(cube, f, exact, vec_est);
      lvl_tight.add(100.0 * ls.tightness());
      vec_tight.add(100.0 * vs.tightness());
      lvl_match.add(100.0 * static_cast<double>(ls.exact_matches) /
                    static_cast<double>(ls.healthy_nodes));
      vec_match.add(100.0 * static_cast<double>(vs.exact_matches) /
                    static_cast<double>(vs.healthy_nodes));

      // Pairwise optimal-feasibility coverage (sampled).
      for (int p = 0; p < 200; ++p) {
        const auto s = static_cast<NodeId>(rng.below(cube.num_nodes()));
        const auto d = static_cast<NodeId>(rng.below(cube.num_nodes()));
        if (s == d || f.is_faulty(s) || f.is_faulty(d)) continue;
        lvl_pairs.add(
            core::decide_at_source(cube, levels, s, d).optimal_feasible());
        vec_pairs.add(core::decide_at_source_sv(cube, vectors, s, d)
                          .optimal_feasible());
        exact_pairs.add(relation[s][d]);
      }
    }
    t.row() << static_cast<std::int64_t>(fc) << lvl_tight.mean()
            << vec_tight.mean() << lvl_match.mean() << vec_match.mean()
            << lvl_pairs.percent() << vec_pairs.percent()
            << exact_pairs.percent();
    // The dominance chain must show up in the aggregates.
    ok &= lvl_pairs.value() <= vec_pairs.value() + 1e-9;
    ok &= vec_pairs.value() <= exact_pairs.value() + 1e-9;
    ok &= lvl_tight.mean() <= vec_tight.mean() + 1e-9;
  }
  bench::emit(t, opt);
  std::cout << "TIGHT chain (level <= vector <= exact): "
            << (ok ? "HOLDS" : "VIOLATED") << "\n";
  return ok ? 0 : 1;
}
