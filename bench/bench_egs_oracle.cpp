// EGS ORACLE — wall-clock accounting for the incremental two-view table
// (core::EgsOracle) against from-scratch run_egs, Section 4.1's analogue
// of the ENGINE bench.
//
// A mission sweep (oracle_sweep.hpp runs it three ways and checks their
// digests): each mission starts fault-free, node AND link fault events
// arrive one at a time (a coin picks the event class, repairs kick in
// near each ceiling), the EGS two-view tables are refreshed after every
// event — run A with run_egs, runs B and C with EgsOracle
// add/remove/fail/recover — and application unicasts are routed on them.
// --bench-json writes the record CI compares exactly against
// BENCH_EGS_ORACLE.json; the wall times and speedups are printed, not
// recorded.
#include "core/egs.hpp"
#include "core/egs_oracle.hpp"
#include "fault/fault_set.hpp"
#include "fault/link_fault_set.hpp"
#include "oracle_sweep.hpp"
#include "workload/pair_sampler.hpp"

namespace {

using namespace slcube;

bench::MissionTally mission(const bench::Mission& m, exp::TrialContext& ctx) {
  const topo::Hypercube& cube = m.cube;
  const std::uint64_t node_ceiling = 2 * cube.dimension();
  const std::size_t link_ceiling = 2 * cube.dimension();
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
    if (ctx.rng.chance(0.5)) {
      // Node event.
      const bool repair = f.count() >= node_ceiling ||
                          (f.count() > 4 && ctx.rng.chance(0.3));
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
    } else {
      // Link event.
      const bool repair = lf.count() >= link_ceiling ||
                          (lf.count() > 4 && ctx.rng.chance(0.3));
      if (repair) {
        const auto faulty = lf.faulty_links();
        const auto [a, d] = faulty[ctx.rng.below(faulty.size())];
        lf.mark_healthy(a, d);
        if (m.use_oracle) oracle.recover_link(a, d);
      } else {
        NodeId a;
        Dim d;
        do {
          a = static_cast<NodeId>(ctx.rng.below(cube.num_nodes()));
          d = static_cast<Dim>(ctx.rng.below(cube.dimension()));
        } while (lf.is_faulty(a, d));
        lf.mark_faulty(a, d);
        if (m.use_oracle) oracle.fail_link(a, d);
      }
    }
    if (!m.use_oracle) scratch = core::run_egs(cube, f, lf);
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
