// MCAST — the multicast extension: traffic of the level-guided multicast
// tree versus per-destination unicasts, and delivery coverage, as the
// destination-set size and fault count grow.
#include <iostream>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "core/global_status.hpp"
#include "core/multicast.hpp"
#include "core/unicast.hpp"
#include "fault/injection.hpp"

int main(int argc, char** argv) {
  using namespace slcube;
  const auto opt = bench::Options::parse(
      argc, argv, bench::kTrials | bench::kSeed);
  const unsigned trials = opt.trials ? opt.trials : 200;
  const std::uint64_t seed = opt.seed ? opt.seed : 0x3CA57;
  bool ok = true;

  const topo::Hypercube cube(8);
  Table t("MCAST: multicast tree vs separate unicasts, Q8 (" +
              std::to_string(trials) + " trials/point)",
          {"faults", "|D|", "delivered%", "tree traffic", "unicast sum",
           "savings%"});
  for (std::size_t c = 2; c <= 5; ++c) t.set_precision(c, 2);

  Xoshiro256ss rng(seed);
  for (const std::uint64_t fc : {0ull, 7ull, 20ull}) {
    for (const unsigned nd : {2u, 4u, 8u, 16u, 32u}) {
      Ratio delivered;
      RunningStat tree, unis, savings;
      for (unsigned trial = 0; trial < trials; ++trial) {
        const auto f = fault::inject_uniform(cube, fc, rng);
        const auto lv = core::compute_safety_levels(cube, f);
        NodeId src;
        do {
          src = static_cast<NodeId>(rng.below(cube.num_nodes()));
        } while (f.is_faulty(src));
        std::vector<NodeId> dests;
        while (dests.size() < nd) {
          const auto d = static_cast<NodeId>(rng.below(cube.num_nodes()));
          if (f.is_healthy(d) && d != src) dests.push_back(d);
        }
        const auto r = multicast(cube, f, lv, src, dests);
        std::uint64_t unicast_sum = 0;
        for (std::size_t i = 0; i < dests.size(); ++i) {
          delivered.add(r.delivered[i]);
          if (!r.delivered[i]) continue;
          const auto u = core::route_unicast(cube, f, lv, src, dests[i]);
          unicast_sum += u.hops();
        }
        tree.add(static_cast<double>(r.traffic));
        unis.add(static_cast<double>(unicast_sum));
        if (unicast_sum > 0) {
          savings.add(100.0 * (1.0 - static_cast<double>(r.traffic) /
                                         static_cast<double>(unicast_sum)));
          ok &= r.traffic <= unicast_sum;
        }
      }
      t.row() << static_cast<std::int64_t>(fc)
              << static_cast<std::int64_t>(nd) << delivered.percent()
              << tree.mean() << unis.mean() << savings.mean();
      if (fc == 0) ok &= delivered.value() == 1.0;
    }
  }
  bench::emit(t, opt);
  std::cout << "MCAST claims (tree traffic <= unicast sum; full delivery "
               "when fault-free): "
            << (ok ? "HOLD" : "VIOLATED") << "\n";
  return ok ? 0 : 1;
}
