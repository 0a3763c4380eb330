// AVAIL — a mission-style whole-system experiment on the message-level
// simulator: a Q8 machine runs a long maintenance mission during which
// nodes fail (and sometimes recover) as application unicasts keep
// flowing; levels are maintained purely by the state-change-driven
// discipline. Reports, per mission phase, the delivery/optimality rates,
// the refusal correctness, and the cumulative protocol overhead —
// the operational story behind the paper's cost argument.
//
// Missions are independent trials and run on the shared exp::SweepEngine:
// each draws its randomness from a counter-based substream keyed by the
// mission index, so the report is bit-identical at any --threads value.
#include <iostream>

#include "analysis/bfs.hpp"
#include "bench_util.hpp"
#include "common/stats.hpp"
#include "exp/sweep_engine.hpp"
#include "fault/fault_set.hpp"
#include "sim/protocol_gs.hpp"
#include "sim/protocol_unicast.hpp"
#include "topology/topology_view.hpp"
#include "workload/pair_sampler.hpp"

int main(int argc, char** argv) {
  using namespace slcube;
  const auto opt = bench::Options::parse(
      argc, argv,
      bench::kAudit | bench::kTrials | bench::kSeed | bench::kThreads);
  const unsigned missions = opt.trials ? opt.trials : 30;
  const std::uint64_t seed = opt.seed ? opt.seed : 0xA5A11;

  const topo::Hypercube cube(8);
  const topo::HypercubeView view(cube);
  // --audit: every mission's full event stream (GS rounds, cascade
  // sends/drops, fail/recover churn, per-route decisions) flows through
  // the invariant oracle; AuditSink keeps per-thread lanes, so parallel
  // missions interleave safely.
  const auto audit = opt.make_audit_sink(8);
  constexpr unsigned kPhases = 8;
  constexpr unsigned kEventsPerPhase = 6;   // fail/recover events
  constexpr unsigned kUnicastsPerPhase = 120;

  struct Phase {
    RunningStat live_faults;
    Ratio delivered, optimal, refused, refusal_ok;
    RunningStat cascade_msgs;
  };

  exp::SweepEngine engine({opt.threads, seed});
  exp::EngineTiming timing;
  const auto runs = engine.map<std::vector<Phase>>(
      0, missions,
      [&](exp::TrialContext& ctx) {
        std::vector<Phase> mine(kPhases);
        fault::FaultSet base(cube.num_nodes());
        sim::Network net(cube, base);
        if (audit) net.set_trace(audit.get());
        sim::run_gs_synchronous(net);

        for (unsigned ph = 0; ph < kPhases; ++ph) {
          Phase& acc = mine[ph];
          // Events: mostly failures, some repairs once damage accumulates.
          double cascade = 0;
          for (unsigned e = 0; e < kEventsPerPhase; ++e) {
            const bool repair =
                net.faults().count() > 4 && ctx.rng.chance(0.3);
            if (repair) {
              const auto faulty = net.faults().faulty_nodes();
              const NodeId back = faulty[ctx.rng.below(faulty.size())];
              cascade += static_cast<double>(
                  sim::stabilize_after_recoveries(net, {back}).messages);
            } else if (net.faults().healthy_count() > 2) {
              NodeId victim;
              do {
                victim =
                    static_cast<NodeId>(ctx.rng.below(cube.num_nodes()));
              } while (net.faults().is_faulty(victim));
              cascade += static_cast<double>(
                  sim::stabilize_after_failures(net, {victim}).messages);
            }
          }
          acc.cascade_msgs.add(cascade);
          acc.live_faults.add(static_cast<double>(net.faults().count()));

          // Application traffic on the stabilized machine.
          for (unsigned u = 0; u < kUnicastsPerPhase; ++u) {
            const auto pair =
                workload::sample_uniform_pair(net.faults(), ctx.rng);
            if (!pair) break;
            const auto r = sim::route_unicast_sim(net, pair->s, pair->d);
            acc.delivered.add(r.delivered());
            if (r.delivered()) {
              acc.optimal.add(r.status ==
                              core::RouteStatus::kDeliveredOptimal);
            }
            const bool ref = r.status == core::RouteStatus::kSourceRefused;
            acc.refused.add(ref);
            if (ref) {
              const auto dist =
                  analysis::bfs_distances(view, net.faults(), pair->s);
              // Correct (non-wasteful) refusal: the destination really had
              // no optimal-length path, or none at all.
              acc.refusal_ok.add(dist[pair->d] >
                                 cube.distance(pair->s, pair->d));
            }
          }
        }
        return mine;
      },
      &timing);

  std::vector<Phase> phases(kPhases);
  for (const auto& mission : runs) {
    for (unsigned ph = 0; ph < kPhases; ++ph) {
      phases[ph].live_faults.merge(mission[ph].live_faults);
      phases[ph].delivered.merge(mission[ph].delivered);
      phases[ph].optimal.merge(mission[ph].optimal);
      phases[ph].refused.merge(mission[ph].refused);
      phases[ph].refusal_ok.merge(mission[ph].refusal_ok);
      phases[ph].cascade_msgs.merge(mission[ph].cascade_msgs);
    }
  }

  Table t("AVAIL: Q8 mission (" + std::to_string(missions) +
              " missions x " + std::to_string(kPhases) +
              " phases; state-change-driven GS only)",
          {"phase", "avg faults", "delivered%", "optimal%", "refused%",
           "refusal ok%", "cascade msgs"});
  for (std::size_t c = 1; c <= 6; ++c) t.set_precision(c, 2);
  for (unsigned ph = 0; ph < kPhases; ++ph) {
    const Phase& acc = phases[ph];
    t.row() << static_cast<std::int64_t>(ph + 1) << acc.live_faults.mean()
            << acc.delivered.percent() << acc.optimal.percent()
            << acc.refused.percent() << acc.refusal_ok.percent()
            << acc.cascade_msgs.mean();
  }
  bench::emit(t, opt);
  std::cerr << "[engine] workers=" << engine.workers()
            << " wall_ms=" << timing.wall_ms
            << " utilization=" << timing.utilization << "\n";
  return bench::finish_audit(audit.get());
}
