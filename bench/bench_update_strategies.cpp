// MSGS — the Section 2.2 update disciplines measured as real message
// traffic on the simulator: for a burst of node failures, how many
// LevelUpdate messages does each discipline cost to restore a stabilized
// level table?
//   * state-change-driven: only the affected cascade;
//   * periodic: whole-machine announcement waves, mostly wasted;
//   * synchronous (demand-driven rerun of GS): full waves until quiet.
#include <algorithm>
#include <iostream>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "core/global_status.hpp"
#include "fault/injection.hpp"
#include "sim/protocol_gs.hpp"

int main(int argc, char** argv) {
  using namespace slcube;
  const auto opt = bench::Options::parse(
      argc, argv, bench::kTrials | bench::kSeed);
  const unsigned trials = opt.trials ? opt.trials : 60;
  const std::uint64_t seed = opt.seed ? opt.seed : 0x4661;
  bool ok = true;

  const topo::Hypercube cube(8);
  Table t("MSGS: LevelUpdate messages to re-stabilize Q8 after a failure "
          "burst (" + std::to_string(trials) + " trials/point)",
          {"burst size", "state-change avg", "periodic avg",
           "synchronous avg", "cascade/periodic%"});
  t.set_precision(1, 1);
  t.set_precision(2, 1);
  t.set_precision(3, 1);
  t.set_precision(4, 2);

  Xoshiro256ss rng(seed);
  for (const unsigned burst : {1u, 2u, 4u, 8u, 16u}) {
    RunningStat cascade_msgs, periodic_msgs, sync_msgs;
    for (unsigned trial = 0; trial < trials; ++trial) {
      const auto base = fault::inject_uniform(cube, 6, rng);
      std::vector<NodeId> victims;
      while (victims.size() < burst) {
        const auto v = static_cast<NodeId>(rng.below(cube.num_nodes()));
        if (base.is_healthy(v) &&
            std::find(victims.begin(), victims.end(), v) == victims.end()) {
          victims.push_back(v);
        }
      }

      // Discipline: state-change-driven.
      {
        sim::Network net(cube, base);
        sim::run_gs_synchronous(net);
        const auto before = net.stats().level_updates_sent;
        sim::stabilize_after_failures(net, victims);
        cascade_msgs.add(
            static_cast<double>(net.stats().level_updates_sent - before));
      }
      // Discipline: periodic (waves until the fixed point is restored;
      // n-1 waves always suffice).
      {
        sim::Network net(cube, base);
        sim::run_gs_synchronous(net);
        for (const NodeId v : victims) net.fail_node(v);
        const auto before = net.stats().level_updates_sent;
        sim::run_gs_periodic(net, 4, cube.dimension() - 1);
        periodic_msgs.add(
            static_cast<double>(net.stats().level_updates_sent - before));
      }
      // Discipline: demand-driven rerun of synchronous GS.
      {
        sim::Network net(cube, base);
        sim::run_gs_synchronous(net);
        for (const NodeId v : victims) net.fail_node(v);
        const auto before = net.stats().level_updates_sent;
        sim::run_gs_synchronous(net);
        sync_msgs.add(
            static_cast<double>(net.stats().level_updates_sent - before));
      }
    }
    t.row() << static_cast<std::int64_t>(burst) << cascade_msgs.mean()
            << periodic_msgs.mean() << sync_msgs.mean()
            << 100.0 * cascade_msgs.mean() /
                   std::max(1.0, periodic_msgs.mean());
    ok &= cascade_msgs.mean() <= periodic_msgs.mean();
  }
  bench::emit(t, opt);
  std::cout << "MSGS claim (state-change-driven cheapest): "
            << (ok ? "HOLDS" : "VIOLATED") << "\n";
  return ok ? 0 : 1;
}
