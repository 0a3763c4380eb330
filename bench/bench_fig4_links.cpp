// FIG4 / LINKS — Section 4.1: node + link faults under EGS.
//
// Part 1 replays the Fig. 4 walk-through (reconstructed fault set, see
// DESIGN.md errata): two-view levels of 1000/1001 and the suboptimal
// route 1101 -> 1111 -> 1011 -> 1010 -> 1000. Part 2 sweeps mixed
// node/link fault counts through workload::run_link_routing_sweep — the
// shared sweep engine (run_egs tables per trial, per-trial RNG
// substreams, bit-identical at any --threads), with --jsonl emitting
// per-point sweep events and --audit checking every routed path against
// the Section-4.1 invariants.
#include <iostream>

#include "analysis/path.hpp"
#include "bench_util.hpp"
#include "common/format.hpp"
#include "core/egs.hpp"
#include "fault/scenario.hpp"
#include "workload/experiment.hpp"

int main(int argc, char** argv) {
  using namespace slcube;
  const auto opt = bench::Options::parse(
      argc, argv,
      bench::kJsonl | bench::kAudit | bench::kDim | bench::kTrials |
          bench::kSeed | bench::kThreads | bench::kTelemetry);
  const unsigned trials = opt.trials ? opt.trials : 200;
  const std::uint64_t seed = opt.seed ? opt.seed : 0xF164;
  const unsigned dim = opt.dim ? opt.dim : 7;
  bool ok = true;

  // --- Part 1: Fig. 4. ---
  {
    const auto sc = fault::scenario::fig4();
    const auto egs = core::run_egs(sc.cube, sc.faults, sc.link_faults);
    Table t("FIG4: Q4, faults {0000,0101,1100,1110} + link (1000,1001) "
            "[reconstructed placement, all prose facts hold]",
            {"quantity", "paper", "computed"});
    t.row() << std::string("self level of 1000") << std::int64_t{1}
            << static_cast<std::int64_t>(egs.self_view[from_bits("1000")]);
    t.row() << std::string("self level of 1001") << std::int64_t{2}
            << static_cast<std::int64_t>(egs.self_view[from_bits("1001")]);
    t.row() << std::string("public level of 1111") << std::int64_t{4}
            << static_cast<std::int64_t>(
                   egs.public_view[from_bits("1111")]);
    const auto r =
        core::route_unicast_egs(sc.cube, sc.faults, sc.link_faults, egs,
                                from_bits("1101"), from_bits("1000"));
    t.row() << std::string("route 1101 -> 1000")
            << std::string("1101 -> 1111 -> 1011 -> 1010 -> 1000")
            << analysis::format_path(r.path, 4);
    bench::emit(t, opt);
    ok &= r.status == core::RouteStatus::kDeliveredSuboptimal;
    ok &= analysis::format_path(r.path, 4) ==
          "1101 -> 1111 -> 1011 -> 1010 -> 1000";
  }

  // --- Part 2: mixed-fault sweep on the shared engine. ---
  const auto jsonl = opt.make_jsonl_sink();
  const auto audit = opt.make_audit_sink(dim);

  workload::LinkSweepConfig config;
  config.dimension = dim;
  config.points = {{2, 2}, {4, 4}, {6, 6}, {4, 12}, {12, 4}, {10, 10}};
  config.trials = trials;
  config.pairs = 24;
  config.seed = seed;
  config.threads = opt.threads;
  config.trace = jsonl.get();
  config.route_trace = audit.get();  // AuditSink synchronizes internally
  bench::TelemetrySession telemetry(opt);
  config.instrumentation = telemetry.hooks();
  const auto points = workload::run_link_routing_sweep(config);

  Table t("LINKS sweep: EGS routing in Q" + std::to_string(dim) + " (" +
              std::to_string(trials) + " trials/point, 24 pairs each)",
          {"node faults", "link faults", "|N2| mean", "delivered%",
           "optimal%", "suboptimal%", "refused%", "stuck%", "valid paths%"});
  t.set_precision(2, 1);
  for (std::size_t c = 3; c <= 8; ++c) t.set_precision(c, 2);
  for (const auto& p : points) {
    t.row() << static_cast<std::int64_t>(p.node_faults)
            << static_cast<std::int64_t>(p.link_faults) << p.n2_nodes.mean()
            << p.delivered.percent() << p.optimal.percent()
            << p.suboptimal.percent() << p.refused.percent()
            << p.stuck.percent() << p.valid_paths.percent();
    ok &= p.valid_paths.total() == 0 || p.valid_paths.value() == 1.0;
  }
  bench::emit(t, opt);

  if (!telemetry.finish(dim, points.front().timing.workers)) return 2;
  const int audit_rc = bench::finish_audit(audit.get());
  std::cout << "FIG4/LINKS claims: " << (ok ? "HOLD" : "VIOLATED") << "\n";
  return (ok && audit_rc == 0) ? 0 : 1;
}
