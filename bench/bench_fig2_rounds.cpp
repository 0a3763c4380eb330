// FIG2 — "Average number of rounds of information exchange for
// seven-cubes" (the paper's only quantitative simulation figure).
//
// Paper claims to reproduce:
//   * the average number of GS rounds for 7-cubes is far below the
//     worst-case bound n - 1 = 6 at every fault count;
//   * with fewer than 7 faults the average is below 2 rounds.
//
// We sweep the number of uniform random faults and print the mean/max
// rounds over many trials, alongside the rounds the Lee-Hayes and
// Wu-Fernandez safe-node computations need on the same fault sets
// (the Section 2.3 cost comparison).
#include "bench_util.hpp"
#include "workload/experiment.hpp"

int main(int argc, char** argv) {
  using namespace slcube;
  const auto opt = bench::Options::parse(
      argc, argv,
      bench::kJsonl | bench::kDim | bench::kTrials | bench::kSeed |
          bench::kThreads);
  const auto jsonl = opt.make_jsonl_sink();
  const unsigned dim = opt.dim ? opt.dim : 7;
  const unsigned trials = opt.trials ? opt.trials : 2000;
  const std::uint64_t seed = opt.seed ? opt.seed : 0xF162;

  std::vector<std::uint64_t> fault_counts = {1,  2,  3,  4,  6,  8,
                                             10, 14, 20, 28, 40, 64};
  // With --dim below 7, drop the points a smaller cube cannot host.
  std::erase_if(fault_counts,
                [&](std::uint64_t f) { return f + 2 > (1ull << dim); });
  const auto points = workload::run_rounds_sweep(dim, fault_counts, trials,
                                                 seed, jsonl.get(),
                                                 opt.threads);

  Table table("FIG2: GS rounds to stabilize, " + std::to_string(dim) +
                  "-cube, " +
                  std::to_string(trials) + " trials/point (paper: avg < 2 "
                  "for < " + std::to_string(dim) + " faults; worst case " +
                  std::to_string(dim - 1) + ")",
              {"faults", "gs avg", "gs max", "lh avg", "wf avg",
               "disconnected%"});
  for (std::size_t c = 1; c <= 4; ++c) table.set_precision(c, 3);
  table.set_precision(5, 2);
  for (const auto& p : points) {
    table.row() << static_cast<std::int64_t>(p.fault_count)
                << p.gs_rounds.mean() << p.gs_rounds.max()
                << p.lh_rounds.mean() << p.wf_rounds.mean()
                << p.disconnected.percent();
  }
  bench::emit(table, opt);

  // The headline check, printed explicitly (bounds scale with --dim).
  bool claim_holds = true;
  for (const auto& p : points) {
    if (p.fault_count < dim && p.gs_rounds.mean() >= 2.0) claim_holds = false;
    if (p.gs_rounds.max() > static_cast<double>(dim - 1)) claim_holds = false;
  }
  std::cout << "paper claim (avg rounds < 2 when faults < " << dim
            << ", max <= " << dim - 1 << "): "
            << (claim_holds ? "HOLDS" : "VIOLATED") << "\n";
  return claim_holds ? 0 : 1;
}
