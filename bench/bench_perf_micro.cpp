// PERF — google-benchmark microbenchmarks: throughput of the table build
// (GS rounds, the peel, and its Definition-1 check), the EGS oracle's
// writer calls under churn and its first writer call, a single routing
// decision, a full unicast (on plain tables and under EGS node + link
// faults), the safe-node fixed points, and the simulator's event loop.
// These quantify the paper's cost argument (safety levels are cheap
// limited-global information) in wall-clock terms on this machine.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/egs.hpp"
#include "core/egs_oracle.hpp"
#include "core/global_status.hpp"
#include "core/safe_node.hpp"
#include "core/unicast.hpp"
#include "fault/injection.hpp"
#include "sim/protocol_gs.hpp"
#include "sim/protocol_unicast.hpp"
#include "workload/pair_sampler.hpp"

namespace {

using namespace slcube;

/// The fault sets every table-build benchmark runs on: {n, pct} is Q_n
/// with pct% of the nodes faulty, and pct 0 means 2n faults. 2n faults on
/// Q6–Q14 leave almost every node safe; 1% peels 2% (Q16) and 6% (Q20)
/// of the nodes; 2% peels 31% at Q16 and 98% at Q20, where the fixed
/// point collapses.
void TableBuildArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"n", "pct"});
  for (int n = 6; n <= 14; n += 2) b->Args({n, 0});
  for (int n : {16, 20}) {
    for (int pct : {1, 2}) b->Args({n, pct});
  }
}

struct TableBuildInput {
  topo::Hypercube cube;
  fault::FaultSet faults;

  explicit TableBuildInput(const benchmark::State& state)
      : cube(static_cast<unsigned>(state.range(0))) {
    Xoshiro256ss rng(1);
    const auto pct = static_cast<std::uint64_t>(state.range(1));
    faults = fault::inject_uniform(
        cube, pct == 0 ? 2 * cube.dimension() : cube.num_nodes() * pct / 100,
        rng);
  }
};

void BM_GsFixedPoint(benchmark::State& state) {
  const TableBuildInput in(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_gs(in.cube, in.faults));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(in.cube.num_nodes()));
}
BENCHMARK(BM_GsFixedPoint)->Apply(TableBuildArgs);

/// The peel plus its Definition-1 postcondition; BM_IsConsistent times
/// that check alone, so the peel's own share is the difference.
void BM_ComputeSafetyLevels(benchmark::State& state) {
  const TableBuildInput in(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_safety_levels(in.cube, in.faults));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(in.cube.num_nodes()));
}
BENCHMARK(BM_ComputeSafetyLevels)->Apply(TableBuildArgs);

void BM_IsConsistent(benchmark::State& state) {
  const TableBuildInput in(state);
  const auto levels = core::compute_safety_levels(in.cube, in.faults);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::is_consistent(in.cube, in.faults, levels));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(in.cube.num_nodes()));
}
BENCHMARK(BM_IsConsistent)->Apply(TableBuildArgs);

/// The churn writer of perfbench's churn-q16 without the publish: an
/// EgsOracle at Q_n with 2% node faults and 2n faulty links takes one
/// node fail/recover pair and one link fail/recover pair per iteration
/// (four writer calls, each a cascade), so both densities hold.
void BM_EgsOracleChurn(benchmark::State& state) {
  const topo::Hypercube cube(static_cast<unsigned>(state.range(0)));
  Xoshiro256ss rng(7);
  const auto faults = fault::inject_uniform(cube, cube.num_nodes() / 50, rng);
  const auto links = fault::inject_links_uniform(cube, 2 * cube.dimension(),
                                                 rng);
  core::EgsOracle oracle(cube, faults, links);
  std::vector<NodeId> faulty = faults.faulty_nodes();
  auto faulty_links = links.faulty_links();
  for (auto _ : state) {
    NodeId a = 0;
    do {
      a = static_cast<NodeId>(rng.below(cube.num_nodes()));
    } while (oracle.faults().is_faulty(a));
    oracle.add_fault(a);
    const std::size_t i = rng.below(faulty.size());
    oracle.remove_fault(faulty[i]);
    faulty[i] = a;

    Dim d = 0;
    do {
      a = static_cast<NodeId>(rng.below(cube.num_nodes()));
      d = static_cast<Dim>(rng.below(cube.dimension()));
    } while (oracle.links().is_faulty(a, d));
    oracle.fail_link(a, d);
    const std::size_t j = rng.below(faulty_links.size());
    oracle.recover_link(faulty_links[j].first, faulty_links[j].second);
    faulty_links[j] = {a, d};
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4);
}
BENCHMARK(BM_EgsOracleChurn)->Arg(16)->Unit(benchmark::kMicrosecond);

/// The writer call that builds the cascade's count records: an EgsOracle
/// at Q_n with pct% node faults and 2n faulty links, constructed outside
/// the timer, takes its first add_fault. {16, 2} is churn-q16's
/// configuration and {20, 1} table-q20's, whose oracle is never written.
void BM_EgsOracleFirstWrite(benchmark::State& state) {
  const topo::Hypercube cube(static_cast<unsigned>(state.range(0)));
  Xoshiro256ss rng(8);
  const auto pct = static_cast<std::uint64_t>(state.range(1));
  const auto faults =
      fault::inject_uniform(cube, cube.num_nodes() * pct / 100, rng);
  const auto links = fault::inject_links_uniform(cube, 2 * cube.dimension(),
                                                 rng);
  for (auto _ : state) {
    state.PauseTiming();
    auto oracle = std::make_unique<core::EgsOracle>(cube, faults, links);
    NodeId a = 0;
    do {
      a = static_cast<NodeId>(rng.below(cube.num_nodes()));
    } while (faults.is_faulty(a) || links.touches(a));
    state.ResumeTiming();
    oracle->add_fault(a);
    benchmark::ClobberMemory();
    state.PauseTiming();
    oracle.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_EgsOracleFirstWrite)
    ->ArgNames({"n", "pct"})
    ->Args({16, 2})
    ->Args({20, 1})
    ->Unit(benchmark::kMicrosecond);

void BM_SafeNodeFixedPoint(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const topo::Hypercube cube(n);
  Xoshiro256ss rng(2);
  const auto faults = fault::inject_uniform(cube, 2 * n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_safe_nodes(
        cube, faults, core::SafeNodeRule::kWuFernandez));
  }
}
BENCHMARK(BM_SafeNodeFixedPoint)->DenseRange(6, 14, 2);

void BM_SourceDecision(benchmark::State& state) {
  const topo::Hypercube cube(10);
  Xoshiro256ss rng(3);
  const auto faults = fault::inject_uniform(cube, 20, rng);
  const auto levels = core::compute_safety_levels(cube, faults);
  NodeId s = 1, d = 1022;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::decide_at_source(cube, levels, s, d));
    s = (s + 7) & 1023;
    d = (d + 13) & 1023;
  }
}
BENCHMARK(BM_SourceDecision);

void BM_RouteUnicast(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const topo::Hypercube cube(n);
  Xoshiro256ss rng(4);
  const auto faults = fault::inject_uniform(cube, n - 1, rng);
  const auto levels = core::compute_safety_levels(cube, faults);
  std::vector<workload::Pair> pairs;
  for (int i = 0; i < 256; ++i) {
    pairs.push_back(*workload::sample_uniform_pair(faults, rng));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& p = pairs[i++ & 255];
    benchmark::DoNotOptimize(
        core::route_unicast(cube, faults, levels, p.s, p.d));
  }
}
BENCHMARK(BM_RouteUnicast)->DenseRange(6, 14, 2);

/// Section 4.1's setting: 2% node faults plus 2n faulty links, the EGS
/// views, and the same 256-pair ring as BM_RouteUnicast. Link state is
/// read at the source and on every hop here, unlike on plain tables.
struct EgsRing {
  topo::Hypercube cube;
  fault::FaultSet faults;
  fault::LinkFaultSet links;
  core::EgsResult egs;
  std::vector<workload::Pair> pairs;

  explicit EgsRing(unsigned n) : cube(n), links(cube) {
    Xoshiro256ss rng(5);
    faults = fault::inject_uniform(cube, cube.num_nodes() / 50, rng);
    links = fault::inject_links_uniform(cube, 2 * n, rng);
    egs = core::run_egs(cube, faults, links);
    for (int i = 0; i < 256; ++i) {
      pairs.push_back(*workload::sample_uniform_pair(faults, rng));
    }
  }
};

void BM_SourceDecisionEgs(benchmark::State& state) {
  const EgsRing ring(static_cast<unsigned>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& p = ring.pairs[i++ & 255];
    benchmark::DoNotOptimize(
        core::decide_at_source_egs(ring.cube, ring.links, ring.egs, p.s, p.d));
  }
}
BENCHMARK(BM_SourceDecisionEgs)->Arg(10)->Arg(16);

void BM_RouteUnicastEgs(benchmark::State& state) {
  const EgsRing ring(static_cast<unsigned>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& p = ring.pairs[i++ & 255];
    benchmark::DoNotOptimize(core::route_unicast_egs(
        ring.cube, ring.faults, ring.links, ring.egs, p.s, p.d));
  }
}
BENCHMARK(BM_RouteUnicastEgs)->Arg(10)->Arg(16);

void BM_DistributedGsRound(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const topo::Hypercube cube(n);
  Xoshiro256ss rng(5);
  const auto faults = fault::inject_uniform(cube, 2 * n, rng);
  for (auto _ : state) {
    sim::Network net(cube, faults);
    benchmark::DoNotOptimize(sim::run_gs_synchronous(net));
  }
}
BENCHMARK(BM_DistributedGsRound)->DenseRange(6, 10, 2);

void BM_SimUnicast(benchmark::State& state) {
  const topo::Hypercube cube(8);
  Xoshiro256ss rng(6);
  const auto faults = fault::inject_uniform(cube, 7, rng);
  sim::Network net(cube, faults);
  sim::run_gs_synchronous(net);
  std::vector<workload::Pair> pairs;
  for (int i = 0; i < 256; ++i) {
    pairs.push_back(*workload::sample_uniform_pair(faults, rng));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& p = pairs[i++ & 255];
    benchmark::DoNotOptimize(sim::route_unicast_sim(net, p.s, p.d));
  }
}
BENCHMARK(BM_SimUnicast);

}  // namespace
