// FIG1 — replay of the paper's Fig. 1 worked example: the level table of
// the 4-cube with faults {0011, 0100, 0110, 1001} and both routing
// walk-throughs, printed paper-value vs computed-value.
#include <iostream>

#include "bench_util.hpp"
#include "common/format.hpp"
#include "core/global_status.hpp"
#include "core/unicast.hpp"
#include "fault/scenario.hpp"

int main(int argc, char** argv) {
  using namespace slcube;
  const auto opt = bench::Options::parse(argc, argv, 0);
  const auto sc = fault::scenario::fig1();
  const auto gs = core::run_gs(sc.cube, sc.faults);

  Table levels("FIG1: safety levels, Q4 faults {0011,0100,0110,1001} "
               "(stable after " + std::to_string(gs.rounds_to_stabilize) +
               " rounds; paper: 2)",
               {"node", "paper", "computed", "match"});
  bool all_match = true;
  for (NodeId a = 0; a < sc.cube.num_nodes(); ++a) {
    const bool match = gs.levels[a] == sc.expected_levels[a];
    all_match &= match;
    levels.row() << to_bits(a, 4)
                 << static_cast<std::int64_t>(sc.expected_levels[a])
                 << static_cast<std::int64_t>(gs.levels[a])
                 << std::string(match ? "yes" : "NO");
  }
  bench::emit(levels, opt);

  Table routes("FIG1: routing walk-throughs",
               {"unicast", "paper path", "computed path", "status"});
  struct Case {
    const char *s, *d, *paper;
  };
  for (const Case c : {Case{"1110", "0001", "1110 -> 1111 -> 1101 -> 0101 "
                                            "-> 0001"},
                       Case{"0001", "1100", "0001 -> 0000 -> 1000 -> 1100"}}) {
    const auto r = core::route_unicast(sc.cube, sc.faults, gs.levels,
                                       from_bits(c.s), from_bits(c.d));
    routes.row() << (std::string(c.s) + " -> " + c.d)
                 << std::string(c.paper)
                 << analysis::format_path(r.path, 4)
                 << std::string(core::to_string(r.status));
    all_match &= analysis::format_path(r.path, 4) == c.paper;
  }
  bench::emit(routes, opt);

  std::cout << "FIG1 reproduction: " << (all_match ? "EXACT" : "MISMATCH")
            << "\n";
  return all_match ? 0 : 1;
}
