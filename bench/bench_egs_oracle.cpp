// EGS ORACLE — wall-clock accounting for the incremental two-view table
// (core::EgsOracle) against from-scratch run_egs, Section 4.1's analogue
// of the ENGINE bench.
//
// A mission sweep (oracle_sweep.hpp runs it three ways and checks their
// digests): each mission starts fault-free, node AND link fault events
// arrive one at a time (workload::next_churn, the serving workloads'
// churn policy), the EGS two-view tables are refreshed after every
// event — run A with run_egs, runs B and C with EgsOracle
// add/remove/fail/recover — and application unicasts are routed on them.
// --bench-json writes the record CI compares exactly against
// BENCH_EGS_ORACLE.json; the wall times and speedups are printed, not
// recorded.
#include "core/egs.hpp"
#include "core/egs_oracle.hpp"
#include "oracle_sweep.hpp"
#include "workload/churn.hpp"
#include "workload/pair_sampler.hpp"

namespace {

using namespace slcube;

bench::MissionTally mission(const bench::Mission& m, exp::TrialContext& ctx) {
  const topo::Hypercube& cube = m.cube;
  bench::MissionTally out;
  fault::FaultSet f(cube.num_nodes());
  fault::LinkFaultSet lf(cube);
  core::EgsOracle oracle(cube);  // fault-free start: O(N) fill
  core::EgsResult scratch;
  const auto views = [&] {
    return m.use_oracle
               ? oracle.views()
               : core::EgsViews{scratch.public_view, scratch.self_view};
  };
  for (unsigned e = 0; e < m.events; ++e) {
    const svc::ChurnRecord ev = workload::next_churn(cube, f, lf, ctx.rng);
    if (m.use_oracle) {
      workload::apply_churn(oracle, ev);
    } else {
      scratch = core::run_egs(cube, f, lf);
    }
    const core::EgsViews v = views();
    for (unsigned p = 0; p < m.pairs; ++p) {
      const auto pair = workload::sample_uniform_pair(f, ctx.rng);
      if (!pair) break;
      out.count(
          core::route_unicast_egs(cube, f, lf, v, pair->s, pair->d).status);
    }
  }
  const core::EgsViews v = views();
  out.tables = core::packed_digest(v.public_view.packed()) ^
               exp::mix64(core::packed_digest(v.self_view.packed()));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_oracle_bench(
      argc, argv,
      {"egs_oracle", "EGS ORACLE: mixed node/link mission sweep",
       "scratch run_egs", "EGS oracle", 0xE6504AC},
      mission);
}
