// GUAR — Theorem 3 + Property 2: rates of optimal / suboptimal /
// detected-failure unicasts versus fault count and dimension.
//
// Paper claims to reproduce:
//   * faults < n  =>  100% delivery (optimal or H+2), zero refusals;
//   * beyond n-1 faults the scheme keeps working with fault-pattern-
//     dependent refusals, which are always *correct* (the destination is
//     truly unreachable or the guarantee genuinely unavailable), and the
//     delivered share degrades gracefully.
// Plus DESIGN.md ablation #3: spare selection max-level vs
// first-eligible (tie-break handling of C3) — measured via the random
// tie-break option.
//
// Trials run on the shared exp::SweepEngine; each worker keeps one
// core::SafetyOracle per cube and retargets it to the trial's fault set,
// so consecutive trials pay only the incremental cascade instead of a
// from-scratch level computation. Results are --threads-invariant.
#include <algorithm>
#include <iostream>
#include <memory>

#include "analysis/bfs.hpp"
#include "bench_util.hpp"
#include "common/stats.hpp"
#include "core/safety_oracle.hpp"
#include "core/unicast.hpp"
#include "exp/sweep_engine.hpp"
#include "fault/injection.hpp"
#include "topology/topology_view.hpp"
#include "workload/pair_sampler.hpp"

int main(int argc, char** argv) {
  using namespace slcube;
  const auto opt = bench::Options::parse(
      argc, argv,
      bench::kAudit | bench::kTrials | bench::kSeed | bench::kThreads |
          bench::kTelemetry);
  const unsigned trials = opt.trials ? opt.trials : 250;
  const std::uint64_t seed = opt.seed ? opt.seed : 0x6A12;
  bool ok = true;
  int audit_rc = 0;

  bench::TelemetrySession telemetry(opt);
  const obs::InstrumentationHooks hooks = telemetry.hooks();
  exp::SweepEngine engine(
      {opt.threads, seed, hooks.registry, hooks.profiler});
  const std::size_t slots = std::max<std::size_t>(1, engine.workers());
  std::uint64_t stream = 0;

  for (const unsigned n : {6u, 8u, 10u}) {
    // With --audit, every checked route streams through the invariant
    // oracle (the greedy ablation below stays untraced: it deliberately
    // routes without the feasibility guarantee the auditor enforces).
    const auto audit = opt.make_audit_sink(n);
    core::UnicastOptions route_options;
    route_options.trace = audit.get();
    const topo::Hypercube cube(n);
    const topo::HypercubeView view(cube);
    std::vector<std::unique_ptr<core::SafetyOracle>> oracles(slots);
    Table t("GUAR: unicast outcome rates, Q" + std::to_string(n) + " (" +
                std::to_string(trials) + " fault sets/point, 32 pairs "
                "each; paper: faults < n never fails)",
            {"faults", "optimal%", "suboptimal%", "refused%",
             "refusal correct%", "stuck%"});
    for (std::size_t c = 1; c <= 5; ++c) t.set_precision(c, 2);

    std::vector<std::uint64_t> fault_counts = {
        0, n / 2, n - 1, n, 2 * n, 4 * n, cube.num_nodes() / 8,
        cube.num_nodes() / 4};
    std::sort(fault_counts.begin(), fault_counts.end());
    fault_counts.erase(
        std::unique(fault_counts.begin(), fault_counts.end()),
        fault_counts.end());
    for (const auto fc : fault_counts) {
      struct TrialOut {
        Ratio optimal, suboptimal, refused, refusal_correct, stuck;
      };
      const auto results = engine.map<TrialOut>(
          stream++, trials, [&](exp::TrialContext& ctx) {
            TrialOut out;
            const auto f = fault::inject_uniform(cube, fc, ctx.rng);
            if (f.healthy_count() < 2) return out;
            auto& oracle = oracles[ctx.worker];
            if (!oracle) oracle = std::make_unique<core::SafetyOracle>(cube);
            oracle->retarget(f);
            const auto& lv = oracle->levels();
            for (int p = 0; p < 32; ++p) {
              const auto pair = workload::sample_uniform_pair(f, ctx.rng);
              if (!pair) break;
              const auto r = core::route_unicast(cube, f, lv, pair->s,
                                                 pair->d, route_options);
              out.optimal.add(r.status == core::RouteStatus::kDeliveredOptimal);
              out.suboptimal.add(r.status ==
                                 core::RouteStatus::kDeliveredSuboptimal);
              out.refused.add(r.status == core::RouteStatus::kSourceRefused);
              out.stuck.add(r.status == core::RouteStatus::kStuck);
              if (r.status == core::RouteStatus::kSourceRefused) {
                // A refusal is "correct" when no guarantee was available;
                // strongest verifiable form: destination unreachable OR no
                // optimal path of length H exists from the source.
                const auto dist = analysis::bfs_distances(view, f, pair->s);
                out.refusal_correct.add(dist[pair->d] >
                                        cube.distance(pair->s, pair->d));
              }
            }
            return out;
          });
      Ratio optimal, suboptimal, refused, refusal_correct, stuck;
      for (const TrialOut& r : results) {
        optimal.merge(r.optimal);
        suboptimal.merge(r.suboptimal);
        refused.merge(r.refused);
        refusal_correct.merge(r.refusal_correct);
        stuck.merge(r.stuck);
      }
      t.row() << static_cast<std::int64_t>(fc) << optimal.percent()
              << suboptimal.percent() << refused.percent()
              << refusal_correct.percent() << stuck.percent();
      if (fc < n) {
        ok &= refused.hits() == 0 && stuck.hits() == 0;
        ok &= optimal.hits() + suboptimal.hits() == optimal.total();
      }
      ok &= stuck.hits() == 0;  // consistent levels never strand a packet
      hooks.tick();
    }
    bench::emit(t, opt);
    audit_rc |= bench::finish_audit(audit.get());
  }

  // Ablation: what is the feasibility check worth? Route every pair the
  // checked algorithm refuses with the unchecked greedy walk and count
  // salvage vs mid-route death (wasted traffic).
  {
    const topo::Hypercube cube(8);
    std::vector<std::unique_ptr<core::SafetyOracle>> oracles(slots);
    Table t("ABLATION: greedy 'route anyway' on pairs the source check "
            "refuses, Q8 (" + std::to_string(trials) + " trials/point)",
            {"faults", "refused pairs", "salvaged%", "died mid-route%",
             "avg wasted hops"});
    for (std::size_t c = 2; c <= 4; ++c) t.set_precision(c, 2);
    for (const std::uint64_t fc : {24ull, 40ull, 64ull}) {
      struct TrialOut {
        Ratio salvaged;
        RunningStat wasted;
        std::uint64_t refused_pairs = 0;
      };
      const auto results = engine.map<TrialOut>(
          stream++, trials, [&](exp::TrialContext& ctx) {
            TrialOut out;
            const auto f = fault::inject_uniform(cube, fc, ctx.rng);
            if (f.healthy_count() < 2) return out;
            auto& oracle = oracles[ctx.worker];
            if (!oracle) oracle = std::make_unique<core::SafetyOracle>(cube);
            oracle->retarget(f);
            const auto& lv = oracle->levels();
            for (int p = 0; p < 32; ++p) {
              const auto pair = workload::sample_uniform_pair(f, ctx.rng);
              if (!pair) break;
              if (core::decide_at_source(cube, lv, pair->s, pair->d)
                      .feasible()) {
                continue;
              }
              ++out.refused_pairs;
              const auto g =
                  core::route_unicast_greedy(cube, f, lv, pair->s, pair->d);
              out.salvaged.add(g.delivered());
              if (!g.delivered()) {
                out.wasted.add(static_cast<double>(g.hops()));
              }
            }
            return out;
          });
      Ratio salvaged;
      RunningStat wasted;
      std::uint64_t refused_pairs = 0;
      for (const TrialOut& r : results) {
        salvaged.merge(r.salvaged);
        wasted.merge(r.wasted);
        refused_pairs += r.refused_pairs;
      }
      t.row() << static_cast<std::int64_t>(fc)
              << static_cast<std::int64_t>(refused_pairs)
              << salvaged.percent() << (100.0 - salvaged.percent())
              << wasted.mean();
      hooks.tick();
    }
    bench::emit(t, opt);
  }

  if (!telemetry.finish(10, static_cast<unsigned>(engine.workers()))) {
    return 2;
  }
  std::cout << "GUAR claims (never fails below n faults; never stuck): "
            << (ok ? "HOLD" : "VIOLATED") << "\n";
  return ok ? audit_rc : 1;
}
