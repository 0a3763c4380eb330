// SEC23 / ROUNDS — the Section 2.3 comparison of the three node-status
// definitions:
//   1. the worked Q4 example {0000, 0110, 1111}: safe-set sizes 0 (LH),
//      8 (WF), 9 (safety level);
//   2. sweep: average safe-set sizes and stabilization rounds per
//      definition vs fault count, for 7-cubes — the containment chain
//      LH ⊆ WF ⊆ SL must hold at every point.
#include <iostream>

#include "bench_util.hpp"
#include "common/format.hpp"
#include "core/global_status.hpp"
#include "core/safe_node.hpp"
#include "fault/scenario.hpp"
#include "workload/experiment.hpp"

int main(int argc, char** argv) {
  using namespace slcube;
  const auto opt = bench::Options::parse(
      argc, argv, bench::kJsonl | bench::kDim | bench::kTrials | bench::kSeed);
  const auto jsonl = opt.make_jsonl_sink();
  const unsigned dim = opt.dim ? opt.dim : 7;
  const unsigned trials = opt.trials ? opt.trials : 800;
  const std::uint64_t seed = opt.seed ? opt.seed : 0x5EC23;

  // Part 1: the paper's worked example.
  {
    const auto sc = fault::scenario::sec23();
    const auto lv = core::compute_safety_levels(sc.cube, sc.faults);
    const auto lh = core::compute_safe_nodes(sc.cube, sc.faults,
                                             core::SafeNodeRule::kLeeHayes);
    const auto wf = core::compute_safe_nodes(
        sc.cube, sc.faults, core::SafeNodeRule::kWuFernandez);
    Table t("SEC23 example: Q4 faults {0000, 0110, 1111} — safe-set sizes "
            "(paper: LH 0, WF 8, safety-level 9)",
            {"definition", "paper", "computed"});
    t.row() << std::string("Lee-Hayes (Def. 2)") << std::int64_t{0}
            << static_cast<std::int64_t>(lh.safe_count());
    t.row() << std::string("Wu-Fernandez (Def. 3)") << std::int64_t{8}
            << static_cast<std::int64_t>(wf.safe_count());
    t.row() << std::string("safety level (Def. 1)") << std::int64_t{9}
            << static_cast<std::int64_t>(lv.safe_nodes().size());
    bench::emit(t, opt);
  }

  // Part 2: the sweep (with --dim below 7, drop the points a smaller
  // cube cannot host).
  std::vector<std::uint64_t> fault_counts = {1, 2, 4, 6, 8, 12, 16,
                                             24, 32, 48};
  std::erase_if(fault_counts,
                [&](std::uint64_t f) { return f + 2 > (1ull << dim); });
  const auto points = workload::run_rounds_sweep(dim, fault_counts, trials,
                                                 seed, jsonl.get());
  Table t("SEC23 sweep: mean safe-set size and rounds per definition, " +
          std::to_string(dim) + "-cube, " + std::to_string(trials) +
          " trials/point",
          {"faults", "|LH|", "|WF|", "|SL|", "lh rounds", "wf rounds",
           "gs rounds"});
  for (std::size_t c = 1; c <= 6; ++c) t.set_precision(c, 2);
  bool containment = true;
  for (const auto& p : points) {
    t.row() << static_cast<std::int64_t>(p.fault_count) << p.safe_lh.mean()
            << p.safe_wf.mean() << p.safe_level_n.mean()
            << p.lh_rounds.mean() << p.wf_rounds.mean()
            << p.gs_rounds.mean();
    containment &= p.safe_lh.mean() <= p.safe_wf.mean() + 1e-9 &&
                   p.safe_wf.mean() <= p.safe_level_n.mean() + 1e-9;
  }
  bench::emit(t, opt);
  std::cout << "containment LH <= WF <= SL at every point: "
            << (containment ? "HOLDS" : "VIOLATED") << "\n";
  return containment ? 0 : 1;
}
