// FIG3 / THM4 — disconnected hypercubes.
//
// Part 1 replays the paper's Fig. 3 walk-throughs (Q4, faults {0110,
// 1010, 1100, 1111}, node 1110 isolated). Part 2 sweeps random
// *disconnecting* fault patterns and measures: Theorem 4 (LH/WF safe sets
// empty), source-side refusal correctness, and intra-component delivery
// — the claims that make this "the first attempt to address unicasting
// in disconnected hypercubes".
#include <iostream>

#include "analysis/bfs.hpp"
#include "analysis/components.hpp"
#include "baselines/safety_level_router.hpp"
#include "bench_util.hpp"
#include "common/format.hpp"
#include "core/global_status.hpp"
#include "core/properties.hpp"
#include "core/unicast.hpp"
#include "fault/injection.hpp"
#include "fault/scenario.hpp"
#include "topology/topology_view.hpp"
#include "workload/metrics.hpp"
#include "workload/pair_sampler.hpp"

int main(int argc, char** argv) {
  using namespace slcube;
  const auto opt = bench::Options::parse(
      argc, argv, bench::kTrials | bench::kSeed);
  const unsigned trials = opt.trials ? opt.trials : 300;
  const std::uint64_t seed = opt.seed ? opt.seed : 0xF163;
  bool ok = true;

  // --- Part 1: Fig. 3 walk-throughs. ---
  {
    const auto sc = fault::scenario::fig3();
    const auto lv = core::compute_safety_levels(sc.cube, sc.faults);
    Table t("FIG3: Q4 faults {0110,1010,1100,1111} (1110 isolated)",
            {"unicast", "paper outcome", "computed", "path"});
    struct Case {
      const char *s, *d, *paper;
    };
    for (const Case c :
         {Case{"0101", "0000", "optimal (C1)"},
          Case{"0111", "1011", "optimal via preferred 0011 (C2)"},
          Case{"0111", "1110", "aborted at source (C1,C2,C3 fail)"},
          Case{"1110", "0001", "aborted at source (isolated)"}}) {
      const auto r = core::route_unicast(sc.cube, sc.faults, lv,
                                         from_bits(c.s), from_bits(c.d));
      t.row() << (std::string(c.s) + " -> " + c.d) << std::string(c.paper)
              << std::string(core::to_string(r.status))
              << analysis::format_path(r.path, 4);
    }
    bench::emit(t, opt);
    ok &= core::check_theorem4(sc.cube, sc.faults).empty();
  }

  // --- Part 2: random disconnecting patterns. ---
  const topo::Hypercube cube(7);
  const topo::HypercubeView view(cube);
  Xoshiro256ss rng(seed);
  Table t("THM4 sweep: isolation faults in Q7, " + std::to_string(trials) +
              " trials — Theorem 4 + refusal correctness",
          {"extra faults", "thm4 holds%", "refusal correct%",
           "delivered when reachable%", "refused when unreachable%"});
  for (std::size_t c = 1; c <= 4; ++c) t.set_precision(c, 2);

  for (const std::uint64_t extra : {0ull, 4ull, 8ull, 16ull}) {
    Ratio thm4;
    workload::RoutingMetrics m;
    Ratio refused_when_unreachable;
    for (unsigned trial = 0; trial < trials; ++trial) {
      NodeId victim = 0;
      const auto f = fault::inject_isolation(cube, extra, rng, victim);
      thm4.add(core::check_theorem4(cube, f).empty());
      baselines::SafetyLevelRouter router;
      router.prepare(cube, f);
      for (int p = 0; p < 24; ++p) {
        const auto pair = workload::sample_uniform_pair(f, rng);
        if (!pair) break;
        const auto dist = analysis::bfs_distances(view, f, pair->s);
        const auto a = router.route(pair->s, pair->d);
        m.record(a, cube.distance(pair->s, pair->d), dist[pair->d]);
        if (dist[pair->d] == analysis::kUnreachable) {
          refused_when_unreachable.add(a.refused);
        }
      }
    }
    t.row() << static_cast<std::int64_t>(extra) << thm4.percent()
            << m.refusal_correct.percent()
            << m.delivered_when_reachable.percent()
            << refused_when_unreachable.percent();
    ok &= thm4.value() == 1.0;
    // Theorem 2 makes C1/C2/C3 sufficient for reachability, so an
    // unreachable destination can never pass the source check: every
    // cross-partition unicast must be refused, with zero traffic.
    ok &= refused_when_unreachable.total() == 0 ||
          refused_when_unreachable.value() == 1.0;
  }
  bench::emit(t, opt);
  std::cout << "FIG3/THM4 claims: " << (ok ? "HOLD" : "VIOLATED") << "\n";
  return ok ? 0 : 1;
}
