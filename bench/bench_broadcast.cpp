// Broadcast extension (reference [9]'s application): coverage and message
// overhead of safety-level-guided broadcasting vs fault count, from safe
// and from unsafe sources.
#include <iostream>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "core/broadcast.hpp"
#include "core/global_status.hpp"
#include "fault/injection.hpp"

int main(int argc, char** argv) {
  using namespace slcube;
  const auto opt = bench::Options::parse(
      argc, argv, bench::kTrials | bench::kSeed);
  const unsigned trials = opt.trials ? opt.trials : 300;
  const std::uint64_t seed = opt.seed ? opt.seed : 0xB12D;
  bool ok = true;

  const topo::Hypercube cube(8);
  Table t("BROADCAST: coverage/messages, Q8, level-guided binomial tree "
          "with unicast patching (" + std::to_string(trials) +
          " trials/point)",
          {"faults", "source", "coverage%", "avg messages",
           "msgs per reached"});
  t.set_precision(2, 3);
  t.set_precision(3, 1);
  t.set_precision(4, 3);

  Xoshiro256ss rng(seed);
  for (const std::uint64_t fc : {0ull, 4ull, 7ull, 16ull, 32ull, 64ull}) {
    for (const bool safe_source : {true, false}) {
      Ratio covered_all;
      RunningStat coverage, messages, per_reached;
      for (unsigned trial = 0; trial < trials; ++trial) {
        const auto f = fault::inject_uniform(cube, fc, rng);
        const auto lv = core::compute_safety_levels(cube, f);
        auto src = static_cast<NodeId>(cube.num_nodes());
        if (safe_source) {
          const auto safes = lv.safe_nodes();
          if (safes.empty()) continue;
          src = safes[rng.below(safes.size())];
        } else {
          // Any healthy source, biased toward unsafe ones when possible.
          for (int tries = 0; tries < 64; ++tries) {
            const auto c = static_cast<NodeId>(rng.below(cube.num_nodes()));
            if (f.is_faulty(c)) continue;
            src = c;
            if (!lv.is_safe(c)) break;
          }
          if (src == static_cast<NodeId>(cube.num_nodes())) continue;
        }
        const auto r = core::broadcast(cube, f, lv, src);
        const auto healthy = f.healthy_count();
        coverage.add(100.0 * static_cast<double>(r.reached_count()) /
                     static_cast<double>(healthy));
        covered_all.add(r.missed == 0);
        messages.add(static_cast<double>(r.messages));
        per_reached.add(static_cast<double>(r.messages) /
                        static_cast<double>(r.reached_count()));
      }
      if (coverage.count() == 0) {
        // No qualifying trials (e.g. no safe node exists at this fault
        // density) — print an explicit marker instead of misleading 0s.
        t.row() << static_cast<std::int64_t>(fc)
                << std::string(safe_source ? "safe" : "any")
                << std::string("n/a") << std::string("n/a")
                << std::string("n/a");
        continue;
      }
      t.row() << static_cast<std::int64_t>(fc)
              << std::string(safe_source ? "safe" : "any") << coverage.mean()
              << messages.mean() << per_reached.mean();
      if (fc < cube.dimension() && safe_source) {
        ok &= covered_all.total() == 0 || covered_all.value() == 1.0;
      }
    }
  }
  bench::emit(t, opt);
  std::cout << "BROADCAST claim (full coverage, safe source, < n faults): "
            << (ok ? "HOLDS" : "VIOLATED") << "\n";
  return ok ? 0 : 1;
}
