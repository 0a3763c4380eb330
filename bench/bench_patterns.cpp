// PATTERNS — the communication kernels real hypercube algorithms
// generate (bit-complement, bit-reversal, transpose, shuffle, dimension
// exchange, random permutation), routed with the safety-level scheme on
// faulty Q8 machines. Patterns stress routing very differently from
// uniform pairs: bit-complement puts every packet at H = n, so the
// source needs a full level-n certificate, while dimension exchange
// (H = 1) is nearly indestructible. The health-metrics columns report
// what the fault pattern does to the machine itself (healthy diameter /
// stretch), bounding what any router could achieve.
#include <iostream>

#include "analysis/fault_metrics.hpp"
#include "bench_util.hpp"
#include "common/stats.hpp"
#include "core/global_status.hpp"
#include "core/unicast.hpp"
#include "fault/injection.hpp"
#include "topology/topology_view.hpp"
#include "workload/patterns.hpp"

int main(int argc, char** argv) {
  using namespace slcube;
  const auto opt = bench::Options::parse(
      argc, argv, bench::kTrials | bench::kSeed);
  const unsigned trials = opt.trials ? opt.trials : 60;
  const std::uint64_t seed = opt.seed ? opt.seed : 0xBA77;
  bool ok = true;

  const topo::Hypercube cube(8);
  const topo::HypercubeView view(cube);
  Xoshiro256ss rng(seed);

  for (const std::uint64_t fc : {4ull, 7ull, 16ull, 32ull}) {
    Table t("PATTERNS: safety-level routing under traffic kernels, Q8, " +
                std::to_string(fc) + " faults (" + std::to_string(trials) +
                " trials/pattern)",
            {"pattern", "avg H", "delivered%", "optimal%", "suboptimal%",
             "refused%"});
    for (std::size_t c = 1; c <= 5; ++c) t.set_precision(c, 2);

    RunningStat diameter, stretch;
    for (const workload::Pattern p : workload::kAllPatterns) {
      RunningStat hamming;
      Ratio delivered, optimal, suboptimal, refused;
      for (unsigned trial = 0; trial < trials; ++trial) {
        const auto f = fault::inject_uniform(cube, fc, rng);
        const auto lv = core::compute_safety_levels(cube, f);
        if (p == workload::kAllPatterns[0]) {
          const auto hm = analysis::compute_health_metrics(view, f);
          diameter.add(hm.diameter);
          stretch.add(hm.avg_stretch);
        }
        for (const auto& pair :
             workload::generate_pattern(cube, f, p, rng)) {
          hamming.add(cube.distance(pair.s, pair.d));
          const auto r = core::route_unicast(cube, f, lv, pair.s, pair.d);
          delivered.add(r.delivered());
          refused.add(r.status == core::RouteStatus::kSourceRefused);
          if (r.delivered()) {
            optimal.add(r.status == core::RouteStatus::kDeliveredOptimal);
            suboptimal.add(r.status ==
                           core::RouteStatus::kDeliveredSuboptimal);
          }
        }
      }
      t.row() << std::string(workload::to_string(p)) << hamming.mean()
              << delivered.percent() << optimal.percent()
              << suboptimal.percent() << refused.percent();
      if (fc < cube.dimension()) ok &= delivered.value() == 1.0;
    }
    bench::emit(t, opt);
    std::cout << "machine health at " << fc
              << " faults: healthy diameter avg " << diameter.mean()
              << " (fault-free: 8), forced stretch avg " << stretch.mean()
              << "\n\n";
  }
  std::cout << "PATTERNS claim (full delivery below n faults on every "
               "kernel): "
            << (ok ? "HOLDS" : "VIOLATED") << "\n";
  return ok ? 0 : 1;
}
