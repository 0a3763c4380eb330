// ENGINE — wall-clock accounting for the two PR-2 performance layers:
// the exp::SweepEngine thread pool and the incremental core::SafetyOracle.
//
// An availability-style sweep (oracle_sweep.hpp runs it three ways and
// checks their digests): each mission starts fault-free, nodes fail and
// recover one event at a time, the safety-level fixed point is refreshed
// after every event — run A from scratch with compute_safety_levels, runs
// B and C with SafetyOracle add_fault/remove_fault — and application
// unicasts are routed on it. The default run is Q14. --bench-json writes
// the record CI compares exactly against BENCH_SWEEP_ENGINE.json; the
// wall times and speedups are printed, not recorded.
#include "core/safety_oracle.hpp"
#include "fault/fault_set.hpp"
#include "oracle_sweep.hpp"
#include "workload/pair_sampler.hpp"

namespace {

using namespace slcube;

bench::MissionTally mission(const bench::Mission& m, exp::TrialContext& ctx) {
  const topo::Hypercube& cube = m.cube;
  const std::uint64_t fault_ceiling = 3 * cube.dimension();
  bench::MissionTally out;
  fault::FaultSet f(cube.num_nodes());
  core::SafetyOracle oracle(cube);  // fault-free start: O(N) fill
  core::SafetyLevels scratch = oracle.levels();
  for (unsigned e = 0; e < m.events; ++e) {
    const bool repair =
        f.count() >= fault_ceiling || (f.count() > 4 && ctx.rng.chance(0.3));
    if (repair) {
      const auto faulty = f.faulty_nodes();
      const NodeId back = faulty[ctx.rng.below(faulty.size())];
      f.mark_healthy(back);
      if (m.use_oracle) oracle.remove_fault(back);
    } else {
      NodeId victim;
      do {
        victim = static_cast<NodeId>(ctx.rng.below(cube.num_nodes()));
      } while (f.is_faulty(victim));
      f.mark_faulty(victim);
      if (m.use_oracle) oracle.add_fault(victim);
    }
    if (!m.use_oracle) scratch = core::compute_safety_levels(cube, f);
    const core::SafetyLevels& lv = m.use_oracle ? oracle.levels() : scratch;
    for (unsigned p = 0; p < m.pairs; ++p) {
      const auto pair = workload::sample_uniform_pair(f, ctx.rng);
      if (!pair) break;
      out.count(core::route_unicast(cube, f, lv, pair->s, pair->d).status);
    }
  }
  out.tables =
      core::packed_digest((m.use_oracle ? oracle.levels() : scratch).packed());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_oracle_bench(
      argc, argv,
      {"sweep_engine", "ENGINE: availability-style sweep", "scratch levels",
       "oracle", 0xE26155},
      mission);
}
