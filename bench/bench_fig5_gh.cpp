// FIG5 / GHX — Section 4.2: generalized hypercubes.
//
// Part 1 replays Fig. 5 (2x3x2 GH, forced fault set {011,100,111,120}):
// level table (with the documented erratum on node 001) and the optimal
// route 010 -> 000 -> 001 -> 101. Part 2 sweeps random GH shapes and
// fault counts: Theorem 2' adherence, feasibility and optimality.
#include <iostream>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/format.hpp"
#include "core/gh_safety.hpp"
#include "core/properties.hpp"
#include "fault/injection.hpp"
#include "fault/scenario.hpp"

int main(int argc, char** argv) {
  using namespace slcube;
  const auto opt = bench::Options::parse(
      argc, argv, bench::kTrials | bench::kSeed);
  const unsigned trials = opt.trials ? opt.trials : 150;
  const std::uint64_t seed = opt.seed ? opt.seed : 0xF165;
  bool ok = true;

  // --- Part 1: Fig. 5. ---
  {
    const auto sc = fault::scenario::fig5();
    const auto gs = core::run_gs_gh(sc.gh, sc.faults);
    Table t("FIG5: 2x3x2 GH, faults {011,100,111,120} — levels "
            "(erratum: Def. 4 yields five 3-safe nodes incl. 001, paper "
            "figure says four and annotates 001 with 1; Theorem 2' holds "
            "for the computed values)",
            {"node", "computed level"});
    for (NodeId a = 0; a < sc.gh.num_nodes(); ++a) {
      t.row() << to_digits(sc.gh.coordinates(a))
              << static_cast<std::int64_t>(gs.levels[a]);
    }
    bench::emit(t, opt);
    ok &= core::check_theorem2_gh(sc.gh, sc.faults, gs.levels).empty();

    const NodeId s = sc.gh.encode({0, 1, 0}), d = sc.gh.encode({1, 0, 1});
    const auto r = core::route_unicast_gh(sc.gh, sc.faults, gs.levels, s, d);
    std::cout << "route 010 -> 101 (paper: 010 -> 000 -> 001 -> 101): ";
    for (std::size_t i = 0; i < r.path.size(); ++i) {
      std::cout << (i ? " -> " : "")
                << to_digits(sc.gh.coordinates(r.path[i]));
    }
    std::cout << "  [" << core::to_string(r.status) << "]\n\n";
    ok &= r.status == core::RouteStatus::kDeliveredOptimal;
  }

  // --- Part 2: shape sweep. ---
  Table t("GHX sweep: random faults in generalized hypercubes (" +
              std::to_string(trials) + " trials/point, 40 pairs each)",
          {"shape", "faults", "thm2' holds%", "delivered%", "optimal%",
           "refused%", "avg rounds"});
  for (std::size_t c = 2; c <= 6; ++c) t.set_precision(c, 2);

  struct ShapePoint {
    std::vector<std::uint32_t> radices;
    std::uint64_t faults;
  };
  Xoshiro256ss rng(seed);
  for (const ShapePoint& sp :
       {ShapePoint{{2, 3, 2}, 2}, {{3, 3, 3}, 3}, {{3, 3, 3}, 6},
        {{4, 4, 4}, 6}, {{2, 2, 2, 3}, 4}, {{4, 3, 4, 2}, 8}}) {
    const topo::GeneralizedHypercube gh(sp.radices);
    Ratio thm2, delivered, optimal, refused;
    RunningStat rounds;
    for (unsigned trial = 0; trial < trials; ++trial) {
      const auto f = fault::inject_uniform_gh(gh, sp.faults, rng);
      const auto gs = core::run_gs_gh(gh, f);
      rounds.add(gs.rounds_to_stabilize);
      thm2.add(core::check_theorem2_gh(gh, f, gs.levels).empty());
      for (int p = 0; p < 40; ++p) {
        const auto s = static_cast<NodeId>(rng.below(gh.num_nodes()));
        const auto d = static_cast<NodeId>(rng.below(gh.num_nodes()));
        if (s == d || f.is_faulty(s) || f.is_faulty(d)) continue;
        const auto r = core::route_unicast_gh(gh, f, gs.levels, s, d);
        delivered.add(r.delivered());
        refused.add(r.status == core::RouteStatus::kSourceRefused);
        if (r.delivered()) {
          optimal.add(r.status == core::RouteStatus::kDeliveredOptimal);
        }
      }
    }
    std::string shape;
    for (auto it = sp.radices.rbegin(); it != sp.radices.rend(); ++it) {
      shape += (shape.empty() ? "" : "x") + std::to_string(*it);
    }
    t.row() << shape << static_cast<std::int64_t>(sp.faults)
            << thm2.percent() << delivered.percent() << optimal.percent()
            << refused.percent() << rounds.mean();
    ok &= thm2.value() == 1.0;
  }
  bench::emit(t, opt);
  std::cout << "FIG5/GHX claims: " << (ok ? "HOLD" : "VIOLATED") << "\n";
  return ok ? 0 : 1;
}
