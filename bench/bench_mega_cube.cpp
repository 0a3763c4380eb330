// MEGA_CUBE — the Q16–Q20 scaling story for the bit-packed safety tables.
//
// Two measurements per run:
//
//  * Table build: for each dim in {14,16,18,20} (capped by --dim), sample
//    a deterministic max(2n, N/50)-fault set and build the fixed point
//    twice — with the GS rounds (run_gs) and with the peel
//    (compute_safety_levels). The two packed tables must be word-for-word
//    identical, spare bits and all; the run aborts if any dim disagrees.
//    Reported per dim: GS rounds to stabilize, GS and peel build wall, and
//    bytes/node of the packed table (5 bits x 12 levels per u64 word ≈
//    0.667 at any dim).
//
//  * Route sweep: for each dim in {14,16} (capped by --dim), route
//    --trials uniform healthy pairs on the stabilized table through the
//    sweep engine's map_fold — no per-trial result vector, just a tally
//    plus an xor-of-per-trial-mixes digest, which is a fold homomorphism
//    and therefore bit-identical at any --threads value. The smallest
//    route dim is re-run serial and compared as a self-check. Reported
//    per dim: outcome tallies and routes/sec.
//
// --bench-json writes the digests, rounds, tallies and bytes/node, which
// CI compares exactly against BENCH_MEGA_CUBE.json; the build and route
// wall times and routes/sec are printed, not recorded.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/global_status.hpp"
#include "core/packed_levels.hpp"
#include "core/unicast.hpp"
#include "exp/sweep_engine.hpp"
#include "fault/fault_set.hpp"
#include "obs/span.hpp"
#include "workload/pair_sampler.hpp"

namespace {

using namespace slcube;

/// Deterministic fault set for dim d: max(2d, N/50) distinct victims from
/// the dim's own substream, independent of thread count and of the other
/// dims. 2% density keeps a mega-cube's GS cascade non-trivial (a 2n-fault
/// set in Q20 stabilizes in zero rounds) and puts faults on real routes —
/// past ~5% the paper's conservative source conditions refuse nearly
/// every request, so 2% is the densest setting that still routes.
fault::FaultSet sample_faults(const topo::Hypercube& cube,
                              std::uint64_t seed) {
  auto rng = exp::substream(seed, /*stream=*/cube.dimension(), /*trial=*/0);
  fault::FaultSet f(cube.num_nodes());
  const std::uint64_t want =
      std::max<std::uint64_t>(2 * cube.dimension(), cube.num_nodes() / 50);
  while (f.count() < want) {
    const auto victim = static_cast<NodeId>(rng.below(cube.num_nodes()));
    if (f.is_healthy(victim)) f.mark_faulty(victim);
  }
  return f;
}

struct BuildRow {
  unsigned dim = 0;
  unsigned rounds = 0;
  double gs_ms = 0.0;
  double peel_ms = 0.0;
  std::uint64_t digest = 0;
  double bytes_per_node = 0.0;
};

/// Build the fixed point with the GS rounds and with the peel; abort if
/// the two packed tables differ in any word.
BuildRow build_tables(const topo::Hypercube& cube,
                      const fault::FaultSet& faults) {
  BuildRow row;
  row.dim = cube.dimension();

  const obs::Stopwatch gs_clock;
  const auto gs = core::run_gs(cube, faults);
  row.gs_ms = gs_clock.millis();

  const obs::Stopwatch peel_clock;
  const auto peeled = core::compute_safety_levels(cube, faults);
  row.peel_ms = peel_clock.millis();

  if (gs.levels.packed() != peeled.packed()) {
    std::cerr << "FATAL: the peel and GS reached different fixed points at Q"
              << row.dim << "\n";
    std::exit(1);
  }

  row.rounds = gs.rounds_to_stabilize;
  row.digest = core::packed_digest(peeled.packed());
  row.bytes_per_node =
      static_cast<double>(peeled.packed().storage_bytes()) /
      static_cast<double>(cube.num_nodes());
  return row;
}

struct RouteTally {
  std::uint64_t optimal = 0;
  std::uint64_t suboptimal = 0;
  std::uint64_t refused = 0;
  std::uint64_t stuck = 0;
  std::uint64_t hops = 0;
  std::uint64_t digest = 0;  ///< xor of per-trial mixes (order-free)

  void add(const RouteTally& o) {
    optimal += o.optimal;
    suboptimal += o.suboptimal;
    refused += o.refused;
    stuck += o.stuck;
    hops += o.hops;
    digest ^= o.digest;
  }
};

struct RouteRow {
  unsigned dim = 0;
  std::size_t workers = 0;  ///< sweep-engine workers that ran the sweep
  double wall_ms = 0.0;
  double utilization = 0.0;
  double routes_per_sec = 0.0;
  RouteTally tally;
};

/// Route `requests` uniform healthy pairs on a fixed table. The digest
/// xors one mix per trial, so map_fold's chunk merge is order-free and
/// the result is bit-identical at any worker count.
RouteRow run_routes(const topo::Hypercube& cube, const fault::FaultSet& faults,
                    const core::SafetyLevels& levels, std::size_t requests,
                    std::uint64_t seed, unsigned threads) {
  exp::SweepEngine engine({threads, seed, nullptr, nullptr});
  RouteRow row;
  row.dim = cube.dimension();
  row.workers = engine.workers();

  const auto body = [&](exp::TrialContext& ctx) {
    RouteTally t;
    const auto pair = workload::sample_uniform_pair(faults, ctx.rng);
    if (!pair) return t;  // cannot happen: 2% faults never exhaust Q14+
    const auto r = core::route_unicast(cube, faults, levels, pair->s, pair->d);
    t.optimal += r.status == core::RouteStatus::kDeliveredOptimal;
    t.suboptimal += r.status == core::RouteStatus::kDeliveredSuboptimal;
    t.refused += r.status == core::RouteStatus::kSourceRefused;
    t.stuck += r.status == core::RouteStatus::kStuck;
    const std::uint64_t hops = r.delivered() ? r.hops() : 0;
    t.hops += hops;
    t.digest = exp::mix64(
        (ctx.trial + 1) * 0x9e3779b97f4a7c15ull ^
        (static_cast<std::uint64_t>(r.status) + 1) * 0xbf58476d1ce4e5b9ull ^
        hops);
    return t;
  };

  exp::EngineTiming timing;
  row.tally = engine.map_fold<RouteTally>(
      /*stream=*/100 + cube.dimension(), requests, body,
      [](RouteTally& acc, const RouteTally& t) { acc.add(t); },
      [](RouteTally& acc, const RouteTally& t) { acc.add(t); }, &timing);
  row.wall_ms = timing.wall_ms;
  row.utilization = timing.utilization;
  row.routes_per_sec = timing.wall_ms > 0.0
                           ? static_cast<double>(requests) /
                                 (timing.wall_ms / 1000.0)
                           : 0.0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(
      argc, argv,
      bench::kDim | bench::kTrials | bench::kSeed | bench::kThreads |
          bench::kBenchJson);
  const unsigned max_dim =
      std::min(opt.dim ? opt.dim : 20u, topo::Hypercube::kMaxDimension);
  const std::size_t requests = opt.trials ? opt.trials : 200000;
  const std::uint64_t seed = opt.seed ? opt.seed : 0x3E6AC0BEull;

  std::vector<unsigned> build_dims;
  for (unsigned d : {14u, 16u, 18u, 20u}) {
    if (d <= max_dim) build_dims.push_back(d);
  }
  if (build_dims.empty()) build_dims.push_back(max_dim);
  std::vector<unsigned> route_dims;
  for (unsigned d : {14u, 16u}) {
    if (d <= max_dim) route_dims.push_back(d);
  }
  if (route_dims.empty()) route_dims.push_back(max_dim);

  std::vector<BuildRow> builds;
  for (unsigned d : build_dims) {
    const topo::Hypercube cube(d);
    builds.push_back(build_tables(cube, sample_faults(cube, seed)));
  }

  std::vector<RouteRow> routes;
  for (unsigned d : route_dims) {
    const topo::Hypercube cube(d);
    const auto faults = sample_faults(cube, seed);
    const auto levels = core::compute_safety_levels(cube, faults);
    routes.push_back(
        run_routes(cube, faults, levels, requests, seed, opt.threads));
  }

  // Self-check: the smallest route sweep, re-run serial, must reproduce
  // the threaded digest and tallies exactly (map_fold homomorphism).
  {
    const unsigned d = route_dims.front();
    const topo::Hypercube cube(d);
    const auto faults = sample_faults(cube, seed);
    const auto levels = core::compute_safety_levels(cube, faults);
    const auto serial = run_routes(cube, faults, levels, requests, seed, 1);
    const RouteRow& threaded = routes.front();
    if (serial.tally.digest != threaded.tally.digest ||
        serial.tally.optimal != threaded.tally.optimal ||
        serial.tally.hops != threaded.tally.hops) {
      std::cerr << "FATAL: serial and threaded route sweeps diverged at Q"
                << d << " — map_fold is not thread-invariant\n";
      return 1;
    }
  }

  Table build_table(
      "MEGA_CUBE: packed fixed point, GS rounds vs peel, max(2n, 2%) faults",
      {"dim", "nodes", "rounds", "GS ms", "peel ms", "speedup",
       "bytes/node", "digest"});
  build_table.set_precision(3, 1);
  build_table.set_precision(4, 1);
  build_table.set_precision(5, 2);
  build_table.set_precision(6, 3);
  for (const BuildRow& b : builds) {
    build_table.row() << b.dim << (std::uint64_t{1} << b.dim) << b.rounds
                      << b.gs_ms << b.peel_ms
                      << (b.peel_ms > 0.0 ? b.gs_ms / b.peel_ms : 0.0)
                      << b.bytes_per_node << std::to_string(b.digest);
  }
  bench::emit(build_table, opt);

  Table route_table(
      "MEGA_CUBE: unicast sweep on the packed table (" +
          std::to_string(requests) + " requests/dim, " +
          std::to_string(routes.front().workers) + " workers)",
      {"dim", "optimal", "suboptimal", "refused", "stuck", "wall ms",
       "routes/s"});
  route_table.set_precision(5, 1);
  route_table.set_precision(6, 0);
  for (const RouteRow& r : routes) {
    route_table.row() << r.dim << r.tally.optimal << r.tally.suboptimal
                      << r.tally.refused << r.tally.stuck << r.wall_ms
                      << r.routes_per_sec;
  }
  bench::emit(route_table, opt);

  std::cout << "peel/GS tables identical at every dim: yes\n"
            << "serial/threaded route digests identical at Q"
            << route_dims.front() << ": yes\n";

  const bool written = bench::write_record(opt, [&](obs::JsonWriter& w) {
    w.field("bench", "mega_cube")
        .field("max_dim", max_dim)
        .field("route_requests", requests)
        .field("tables_identical", true);
    for (const BuildRow& b : builds) {
      const std::string dim = std::to_string(b.dim);
      w.field("build_q" + dim + "_rounds", b.rounds)
          .field("table_digest_q" + dim, b.digest)
          .field("bytes_per_node_q" + dim, b.bytes_per_node);
    }
    for (const RouteRow& r : routes) {
      const std::string q = "routes_q" + std::to_string(r.dim);
      w.field(q + "_optimal", r.tally.optimal)
          .field(q + "_suboptimal", r.tally.suboptimal)
          .field(q + "_refused", r.tally.refused)
          .field(q + "_stuck", r.tally.stuck)
          .field(q + "_hops", r.tally.hops)
          .field(q + "_digest", r.tally.digest);
    }
  });
  return written ? 0 : 2;
}
