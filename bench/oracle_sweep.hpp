// The shared driver of the two incremental-oracle benches, ENGINE
// (bench_sweep_engine: core::SafetyOracle) and EGS ORACLE
// (bench_egs_oracle: core::EgsOracle). Each trial is a mission on an
// initially fault-free cube: faults arrive and recover one event at a
// time, the level tables are refreshed after every event, and
// application unicasts are routed on them. Three runs of the same sweep
// differ only in machinery:
//   A  serial  + from-scratch tables per event
//   B  serial  + the incremental oracle
//   C  N-way   + the incremental oracle
// All three consume the identical counter-based RNG substreams, so their
// digests must match bit for bit — the run aborts loudly if they do not.
// The digest folds every mission's route tallies and a packed_digest of
// its final tables, so an oracle whose tables drift from scratch fails
// even when every route is still delivered. --telemetry adds run D (C
// with the flight recorder, which must not change the digest).
// --bench-json writes the run's parameters and digest, which CI compares
// exactly against BENCH_<NAME>.json; wall times and speedups stay on
// stdout.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/unicast.hpp"
#include "exp/sweep_engine.hpp"
#include "topology/hypercube.hpp"

namespace slcube::bench {

/// One mission's outcome: route statuses plus its final tables' digest.
struct MissionTally {
  std::uint64_t optimal = 0;
  std::uint64_t suboptimal = 0;
  std::uint64_t refused = 0;
  std::uint64_t stuck = 0;
  std::uint64_t tables = 0;

  void count(core::RouteStatus s) {
    optimal += s == core::RouteStatus::kDeliveredOptimal;
    suboptimal += s == core::RouteStatus::kDeliveredSuboptimal;
    refused += s == core::RouteStatus::kSourceRefused;
    stuck += s == core::RouteStatus::kStuck;
  }
};

/// What a mission body is given besides its trial context.
struct Mission {
  const topo::Hypercube& cube;
  unsigned events;  ///< fault events per mission
  unsigned pairs;   ///< routes after each event
  bool use_oracle;  ///< incremental oracle, or from-scratch tables
};

using MissionBody = MissionTally (*)(const Mission&, exp::TrialContext&);

/// The names one bench prints and records.
struct OracleBench {
  const char* bench;    ///< "bench" field of the --bench-json record
  const char* title;    ///< table title, before ", Q<dim> (...)"
  const char* scratch;  ///< run A's machinery, e.g. "scratch levels"
  const char* oracle;   ///< runs B and C's machinery, e.g. "oracle"
  std::uint64_t seed;   ///< default --seed
};

namespace detail {

struct RunResult {
  double wall_ms = 0.0;
  double utilization = 0.0;
  std::uint64_t digest = 0;  ///< order-sensitive fold over mission tallies
  unsigned workers = 1;
};

/// One full sweep of `missions` missions on `threads` workers. With
/// telemetry hooks the run is split into at most eight batches via map()'s
/// trial_offset — every trial keeps its substream, so the digest must
/// still match the unbatched runs — with a recorder tick before the
/// first batch and after each one.
inline RunResult run_sweep(MissionBody body, const Mission& mission,
                           unsigned missions, std::uint64_t seed,
                           unsigned threads,
                           obs::InstrumentationHooks hooks = {}) {
  exp::SweepEngine engine({threads, seed, hooks.registry, hooks.profiler});
  RunResult result;
  result.workers =
      static_cast<unsigned>(std::max<std::size_t>(1, engine.workers()));
  const auto trial = [&](exp::TrialContext& ctx) { return body(mission, ctx); };

  const std::size_t batch = std::max<std::size_t>(
      1, hooks.enabled() ? (missions + 7) / 8 : missions);
  double util_weighted = 0.0;  // utilization x wall, summed over batches
  hooks.tick();  // baseline sample: deltas start at the run's t0
  for (std::size_t off = 0; off < missions; off += batch) {
    const std::size_t n = std::min<std::size_t>(batch, missions - off);
    exp::EngineTiming timing;
    for (const MissionTally& t :
         engine.map<MissionTally>(0, n, trial, &timing, off)) {
      for (const std::uint64_t v :
           {t.optimal, t.suboptimal, t.refused, t.stuck, t.tables}) {
        result.digest = exp::mix64(result.digest ^ v);
      }
    }
    result.wall_ms += timing.wall_ms;
    util_weighted += timing.utilization * timing.wall_ms;
    hooks.tick();
  }
  result.utilization =
      result.wall_ms > 0.0 ? util_weighted / result.wall_ms : 0.0;
  return result;
}

}  // namespace detail

/// Parse the bench flags, run A, B, C (and D under --telemetry), print
/// the table, and write --bench-json. Returns the process exit status:
/// 1 when the runs' digests diverge, 2 when an output cannot be written.
inline int run_oracle_bench(int argc, char** argv, const OracleBench& spec,
                            MissionBody body) {
  const auto opt = Options::parse(
      argc, argv, kDim | kTrials | kSeed | kThreads | kBenchJson | kTelemetry);
  const unsigned dim = opt.dim ? opt.dim : 14;
  const unsigned missions = opt.trials ? opt.trials : 40;
  const unsigned events = 50;
  const unsigned pairs = 8;
  const std::uint64_t seed = opt.seed ? opt.seed : spec.seed;

  const topo::Hypercube cube(dim);
  const Mission scratch_mission{cube, events, pairs, false};
  const Mission oracle_mission{cube, events, pairs, true};

  TelemetrySession telemetry(opt);

  const auto serial_scratch =
      detail::run_sweep(body, scratch_mission, missions, seed, 1);
  const auto serial_oracle =
      detail::run_sweep(body, oracle_mission, missions, seed, 1);
  const auto parallel_oracle =
      detail::run_sweep(body, oracle_mission, missions, seed, opt.threads);

  const bool identical = serial_scratch.digest == serial_oracle.digest &&
                         serial_oracle.digest == parallel_oracle.digest;
  if (!identical) {
    std::cerr << "FATAL: tallies diverged between runs — the " << spec.oracle
              << " or the engine is not deterministic\n";
    return 1;
  }

  const unsigned workers = parallel_oracle.workers;
  const double speedup_oracle = serial_scratch.wall_ms / serial_oracle.wall_ms;
  const double speedup_threads =
      serial_oracle.wall_ms / parallel_oracle.wall_ms;
  const double speedup_total =
      serial_scratch.wall_ms / parallel_oracle.wall_ms;

  Table table(std::string(spec.title) + ", Q" + std::to_string(dim) + " (" +
                  std::to_string(missions) + " missions x " +
                  std::to_string(events) + " events x " +
                  std::to_string(pairs) + " pairs, " +
                  std::to_string(workers) + " workers available)",
              {"configuration", "wall ms", "utilization", "speedup vs A"});
  table.set_precision(1, 1);
  table.set_precision(2, 2);
  table.set_precision(3, 2);
  table.row() << std::string("A serial + ") + spec.scratch
              << serial_scratch.wall_ms << serial_scratch.utilization << 1.0;
  table.row() << std::string("B serial + ") + spec.oracle
              << serial_oracle.wall_ms << serial_oracle.utilization
              << speedup_oracle;
  table.row() << std::string("C parallel + ") + spec.oracle
              << parallel_oracle.wall_ms << parallel_oracle.utilization
              << speedup_total;
  emit(table, opt);

  std::cout << "tallies identical across A/B/C: yes (digest "
            << serial_scratch.digest << ")\n"
            << "speedup (oracle alone) " << speedup_oracle
            << "x, (threads alone) " << speedup_threads << "x, (total) "
            << speedup_total << "x\n";

  // Run D: configuration C with the flight recorder attached; telemetry
  // must not change results, so the digest has to match run C.
  if (telemetry.enabled()) {
    const auto telemetered =
        detail::run_sweep(body, oracle_mission, missions, seed, opt.threads,
                          telemetry.hooks());
    if (telemetered.digest != parallel_oracle.digest) {
      std::cerr << "FATAL: telemetry-enabled run diverged from run C\n";
      return 1;
    }
    if (!telemetry.finish(dim, telemetered.workers)) return 2;
    std::cout << "telemetry: digest matches run C, " << telemetered.wall_ms
              << " ms vs " << parallel_oracle.wall_ms << " ms untelemetered ("
              << opt.telemetry_file << ")\n";
  }

  const bool written = write_record(opt, [&](obs::JsonWriter& w) {
    w.field("bench", spec.bench)
        .field("dim", dim)
        .field("missions", missions)
        .field("events_per_mission", events)
        .field("pairs_per_event", pairs)
        .field("tallies_identical", true)
        .field("digest", serial_scratch.digest);
  });
  return written ? 0 : 2;
}

}  // namespace slcube::bench
