// ROUNDS — the cost-of-information comparison behind Section 2.3 and the
// Corollary:
//   * GS always stabilizes within n-1 rounds (checked for adversarial
//     patterns, not just uniform ones);
//   * the Lee-Hayes / Wu-Fernandez safe-node computations can need far
//     more rounds (the paper cites O(n^2) worst case) — we construct
//     cascading "staircase" patterns that push them well past n-1;
//   * DESIGN.md ablation #2: optimistic (paper) vs pessimistic GS start.
#include <algorithm>
#include <functional>
#include <iostream>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "core/global_status.hpp"
#include "core/safe_node.hpp"
#include "fault/injection.hpp"

namespace {

using namespace slcube;

/// A fault pattern engineered to cascade: faults along a Gray-code walk
/// so each new unsafe classification enables the next.
fault::FaultSet staircase(const topo::Hypercube& cube, unsigned pairs) {
  fault::FaultSet f(cube.num_nodes());
  NodeId walk = 0;
  for (unsigned i = 0; i < pairs; ++i) {
    // Two adjacent faults per step seed a Lee-Hayes unsafe wave.
    f.mark_faulty(walk);
    f.mark_faulty(bits::flip(walk, 0));
    walk = bits::flip(bits::flip(walk, i % cube.dimension()),
                      (i + 1) % cube.dimension());
  }
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(
      argc, argv, bench::kTrials | bench::kSeed);
  const unsigned trials = opt.trials ? opt.trials : 400;
  const std::uint64_t seed = opt.seed ? opt.seed : 0x20175;
  bool ok = true;

  // Part 1: worst observed rounds per dimension, three fault regimes.
  Table t("ROUNDS: worst observed stabilization rounds (bound for GS is "
          "n-1; LH/WF have no such bound)",
          {"n", "regime", "gs worst", "lh worst", "wf worst"});
  for (const unsigned n : {5u, 6u, 7u, 8u}) {
    const topo::Hypercube cube(n);
    Xoshiro256ss rng(seed + n);
    struct Regime {
      const char* name;
      std::function<fault::FaultSet()> gen;
    };
    const Regime regimes[] = {
        {"uniform n", [&] { return fault::inject_uniform(cube, n, rng); }},
        {"uniform N/4",
         [&] { return fault::inject_uniform(cube, cube.num_nodes() / 4, rng); }},
        {"clustered 2n",
         [&] { return fault::inject_clustered(cube, 2 * n, rng); }},
        {"staircase",
         [&] { return staircase(cube, n); }},
    };
    for (const auto& regime : regimes) {
      double gs_worst = 0, lh_worst = 0, wf_worst = 0;
      const unsigned reps = regime.name == std::string("staircase")
                                ? 1u
                                : trials / 4;
      for (unsigned r = 0; r < reps; ++r) {
        const auto f = regime.gen();
        const auto gs = core::run_gs(cube, f);
        gs_worst = std::max<double>(gs_worst, gs.rounds_to_stabilize);
        lh_worst = std::max<double>(
            lh_worst, core::compute_safe_nodes(
                          cube, f, core::SafeNodeRule::kLeeHayes)
                          .rounds_to_stabilize);
        wf_worst = std::max<double>(
            wf_worst, core::compute_safe_nodes(
                          cube, f, core::SafeNodeRule::kWuFernandez)
                          .rounds_to_stabilize);
        ok &= gs.rounds_to_stabilize <= n - 1;
      }
      t.row() << static_cast<std::int64_t>(n) << std::string(regime.name)
              << gs_worst << lh_worst << wf_worst;
    }
  }
  for (std::size_t c = 2; c <= 4; ++c) t.set_precision(c, 0);
  bench::emit(t, opt);

  // Part 2: ablation #2 — initialization direction.
  Table ab("ABLATION #2: GS start value (same fixed point either way; "
           "rounds differ — the paper's n-start costs nothing when the "
           "cube is healthy)",
           {"n", "faults", "rounds from n (paper)", "rounds from 0"});
  for (const unsigned n : {5u, 7u}) {
    const topo::Hypercube cube(n);
    Xoshiro256ss rng(seed * 3 + n);
    for (const std::uint64_t fc :
         std::initializer_list<std::uint64_t>{0, n, 3ull * n}) {
      RunningStat from_n, from_0;
      for (unsigned r = 0; r < 50; ++r) {
        const auto f = fault::inject_uniform(cube, fc, rng);
        from_n.add(core::run_gs(cube, f).rounds_to_stabilize);
        core::GsOptions pess;
        pess.pessimistic_start = true;
        from_0.add(core::run_gs(cube, f, pess).rounds_to_stabilize);
      }
      ab.row() << static_cast<std::int64_t>(n)
               << static_cast<std::int64_t>(fc) << from_n.mean()
               << from_0.mean();
    }
  }
  ab.set_precision(2, 2);
  ab.set_precision(3, 2);
  bench::emit(ab, opt);

  std::cout << "ROUNDS claim (GS <= n-1 everywhere): "
            << (ok ? "HOLDS" : "VIOLATED") << "\n";
  return ok ? 0 : 1;
}
