#include "workload/experiment.hpp"

#include <algorithm>
#include <bit>
#include <map>

#include "analysis/components.hpp"
#include "analysis/path.hpp"
#include "core/egs_oracle.hpp"
#include "core/safety_oracle.hpp"
#include "diag/routing.hpp"
#include "core/global_status.hpp"
#include "core/safe_node.hpp"
#include "exp/sweep_engine.hpp"
#include "fault/injection.hpp"
#include "topology/topology_view.hpp"
#include "workload/pair_sampler.hpp"

namespace slcube::workload {

namespace {

void emit_sweep_point(obs::TraceSink* trace, const char* sweep,
                      std::uint64_t fault_count,
                      const exp::EngineTiming& timing,
                      unsigned threads,
                      std::vector<std::pair<std::string, double>> values) {
  if (trace == nullptr) return;
  obs::SweepPointEvent ev;
  ev.sweep = sweep;
  ev.fault_count = fault_count;
  ev.wall_ms = timing.wall_ms;
  ev.utilization = timing.utilization;
  ev.threads = threads;
  ev.trial_p50_us = timing.trial_latency_us.quantile(0.5);
  ev.trial_p90_us = timing.trial_latency_us.quantile(0.9);
  ev.trial_p99_us = timing.trial_latency_us.quantile(0.99);
  ev.values = std::move(values);
  trace->on_event(ev);
}

fault::FaultSet inject(const topo::Hypercube& cube, InjectionKind kind,
                       std::uint64_t count, Xoshiro256ss& rng) {
  switch (kind) {
    case InjectionKind::kUniform:
      return fault::inject_uniform(cube, count, rng);
    case InjectionKind::kClustered:
      return fault::inject_clustered(cube, count, rng);
    case InjectionKind::kIsolation: {
      NodeId victim = 0;
      const std::uint64_t extra =
          count > cube.dimension() ? count - cube.dimension() : 0;
      return fault::inject_isolation(cube, extra, rng, victim);
    }
    case InjectionKind::kStar: {
      // A star is bounded by its center's degree: at most n + 1 faults.
      const unsigned leaves = static_cast<unsigned>(std::min<std::uint64_t>(
          count > 0 ? count - 1 : 0, cube.dimension()));
      return fault::inject_star(cube, leaves, rng);
    }
    case InjectionKind::kPath:
      return fault::inject_path(cube, count, rng);
  }
  SLC_UNREACHABLE("bad InjectionKind");
}

/// Fold `hits` successes out of `total` attempts into a Ratio (totals
/// per trial are tiny — at most the pair count).
void add_many(Ratio& r, std::uint64_t hits, std::uint64_t total) {
  for (std::uint64_t i = 0; i < total; ++i) r.add(i < hits);
}

/// Per-route metrics a sweep registers when a telemetry registry is
/// attached: request/delivery counters, a delivered-hop histogram, and
/// one counter per dimension feeding the utilization heatmap. Handles are
/// value types writing to per-thread shards, so record_walk is safe from
/// any worker; when no registry is attached, record_walk is one branch.
struct RouteInstruments {
  bool enabled = false;
  obs::Counter requests;
  obs::Counter delivered;
  obs::Histogram hops;
  std::vector<obs::Counter> hop_dims;

  RouteInstruments(obs::Registry* reg, unsigned dimension) {
    if (reg == nullptr) return;
    enabled = true;
    requests = reg->counter("route.requests");
    delivered = reg->counter("route.delivered");
    hops = reg->histogram("route.hops",
                          obs::linear_bounds(1.0, 1.0, 2 * dimension));
    hop_dims.reserve(dimension);
    for (unsigned k = 0; k < dimension; ++k) {
      hop_dims.push_back(reg->counter("hops.dim." + std::to_string(k)));
    }
  }

  void record_walk(const std::vector<NodeId>& walk, bool was_delivered) {
    if (!enabled) return;
    requests.inc();
    if (was_delivered && walk.size() > 1) {
      delivered.inc();
      hops.observe(static_cast<double>(walk.size() - 1));
    }
    for (std::size_t i = 1; i < walk.size(); ++i) {
      const auto dim =
          static_cast<std::size_t>(std::countr_zero(walk[i - 1] ^ walk[i]));
      if (dim < hop_dims.size()) hop_dims[dim].inc();
    }
  }
};

}  // namespace

std::vector<SweepPoint> run_routing_sweep(const SweepConfig& config,
                                          const RouterFactory& factory) {
  const topo::Hypercube cube(config.dimension);
  const topo::HypercubeView view(cube);
  std::vector<SweepPoint> points;
  points.reserve(config.fault_counts.size());

  exp::SweepEngine engine({config.threads, config.seed,
                           config.instrumentation.registry,
                           config.instrumentation.profiler});
  RouteInstruments instruments(config.instrumentation.registry,
                               config.dimension);

  // Router names come from one probe instantiation; the trial bodies
  // rebuild their own instances with trial-local seeds so that random
  // tie-break routers draw identically at any worker count.
  std::vector<std::string> names;
  for (const auto& r : factory(config.seed)) names.emplace_back(r->name());

  /// Everything one trial contributes; merged into the point in trial
  /// order, which is what makes the sweep --threads-invariant.
  struct TrialOut {
    bool valid = false;
    bool disconnected = false;
    double prepare_rounds = 0.0;
    std::vector<RoutingMetrics> per_router;
  };

  for (std::size_t pi = 0; pi < config.fault_counts.size(); ++pi) {
    const std::uint64_t fault_count = config.fault_counts[pi];
    SweepPoint point;
    point.fault_count = fault_count;

    const auto trials = engine.map<TrialOut>(
        pi, config.trials,
        [&](exp::TrialContext& ctx) {
          TrialOut out;
          const std::uint64_t router_seed = ctx.rng();
          const fault::FaultSet faults =
              inject(cube, config.injection, fault_count, ctx.rng);
          if (faults.healthy_count() < 2) return out;
          out.valid = true;
          out.disconnected =
              analysis::connected_components(view, faults).disconnected();

          auto routers = factory(router_seed);
          out.per_router.resize(routers.size());
          for (auto& r : routers) r->prepare(cube, faults);
          out.prepare_rounds =
              static_cast<double>(routers.front()->prepare_rounds());

          for (unsigned p = 0; p < config.pairs; ++p) {
            const auto pair = sample_uniform_pair(faults, ctx.rng);
            if (!pair) break;
            const auto dist = analysis::bfs_distances(view, faults, pair->s);
            const unsigned hamming = cube.distance(pair->s, pair->d);
            for (std::size_t i = 0; i < routers.size(); ++i) {
              const routing::RouteAttempt attempt =
                  routers[i]->route(pair->s, pair->d);
              // Only the first router feeds the telemetry heatmap, so
              // the per-dimension series describe one routing policy.
              if (i == 0) instruments.record_walk(attempt.walk,
                                                  attempt.delivered);
              out.per_router[i].record(attempt, hamming, dist[pair->d]);
            }
          }
          return out;
        },
        &point.timing);

    for (const auto& name : names) {
      point.per_router.emplace_back(name, RoutingMetrics{});
    }
    for (const TrialOut& t : trials) {
      if (!t.valid) continue;
      SLC_ASSERT(t.per_router.size() == point.per_router.size());
      for (std::size_t i = 0; i < t.per_router.size(); ++i) {
        point.per_router[i].second.merge(t.per_router[i]);
      }
      point.disconnected.add(t.disconnected);
      point.prepare_rounds.add(t.prepare_rounds);
    }

    if (config.trace != nullptr) {
      std::vector<std::pair<std::string, double>> values;
      // Router names may repeat (e.g. two configurations of the same
      // router in an ablation); suffix #k so the JSON keys stay unique.
      std::map<std::string, unsigned> seen;
      for (const auto& [name, metrics] : point.per_router) {
        const unsigned k = seen[name]++;
        const std::string key = k == 0 ? name : name + "#" + std::to_string(k);
        values.emplace_back(key + ".delivered_pct",
                            metrics.delivered.percent());
        values.emplace_back(key + ".optimal_pct", metrics.optimal.percent());
        values.emplace_back(key + ".refused_pct", metrics.refused.percent());
        values.emplace_back(key + ".traffic_mean", metrics.traffic.mean());
      }
      values.emplace_back("disconnected_pct", point.disconnected.percent());
      values.emplace_back("prepare_rounds_mean", point.prepare_rounds.mean());
      emit_sweep_point(config.trace, "routing", fault_count, point.timing,
                       static_cast<unsigned>(engine.workers()),
                       std::move(values));
    }
    config.instrumentation.tick();
    points.push_back(std::move(point));
  }
  return points;
}

std::vector<RoundsPoint> run_rounds_sweep(
    unsigned dimension, const std::vector<std::uint64_t>& fault_counts,
    unsigned trials, std::uint64_t seed, obs::TraceSink* trace,
    unsigned threads, obs::InstrumentationHooks instrumentation) {
  const topo::Hypercube cube(dimension);
  const topo::HypercubeView view(cube);
  std::vector<RoundsPoint> points;
  points.reserve(fault_counts.size());

  exp::SweepEngine engine(
      {threads, seed, instrumentation.registry, instrumentation.profiler});

  struct TrialOut {
    double gs_rounds = 0.0;
    double lh_rounds = 0.0;
    double wf_rounds = 0.0;
    double safe_level_n = 0.0;
    double safe_lh = 0.0;
    double safe_wf = 0.0;
    bool disconnected = false;
  };

  for (std::size_t pi = 0; pi < fault_counts.size(); ++pi) {
    const std::uint64_t fault_count = fault_counts[pi];
    RoundsPoint point;
    point.fault_count = fault_count;

    const auto results = engine.map<TrialOut>(
        pi, trials,
        [&](exp::TrialContext& ctx) {
          const fault::FaultSet faults =
              fault::inject_uniform(cube, fault_count, ctx.rng);
          const core::GsResult gs = core::run_gs(cube, faults);
          const auto lh = core::compute_safe_nodes(
              cube, faults, core::SafeNodeRule::kLeeHayes);
          const auto wf = core::compute_safe_nodes(
              cube, faults, core::SafeNodeRule::kWuFernandez);
          TrialOut out;
          out.gs_rounds = gs.rounds_to_stabilize;
          out.lh_rounds = lh.rounds_to_stabilize;
          out.wf_rounds = wf.rounds_to_stabilize;
          out.safe_level_n =
              static_cast<double>(gs.levels.safe_nodes().size());
          out.safe_lh = static_cast<double>(lh.safe_count());
          out.safe_wf = static_cast<double>(wf.safe_count());
          out.disconnected =
              analysis::connected_components(view, faults).disconnected();
          return out;
        },
        &point.timing);

    for (const TrialOut& t : results) {
      point.gs_rounds.add(t.gs_rounds);
      point.lh_rounds.add(t.lh_rounds);
      point.wf_rounds.add(t.wf_rounds);
      point.safe_level_n.add(t.safe_level_n);
      point.safe_lh.add(t.safe_lh);
      point.safe_wf.add(t.safe_wf);
      point.disconnected.add(t.disconnected);
    }

    emit_sweep_point(
        trace, "rounds", fault_count, point.timing,
        static_cast<unsigned>(engine.workers()),
        {{"gs_rounds_mean", point.gs_rounds.mean()},
         {"lh_rounds_mean", point.lh_rounds.mean()},
         {"wf_rounds_mean", point.wf_rounds.mean()},
         {"safe_level_n_mean", point.safe_level_n.mean()},
         {"safe_lh_mean", point.safe_lh.mean()},
         {"safe_wf_mean", point.safe_wf.mean()},
         {"disconnected_pct", point.disconnected.percent()}});
    instrumentation.tick();
    points.push_back(std::move(point));
  }
  return points;
}

std::vector<LinkSweepPoint> run_link_routing_sweep(
    const LinkSweepConfig& config) {
  const topo::Hypercube cube(config.dimension);
  std::vector<LinkSweepPoint> points;
  points.reserve(config.points.size());

  exp::SweepEngine engine({config.threads, config.seed,
                           config.instrumentation.registry,
                           config.instrumentation.profiler});
  RouteInstruments instruments(config.instrumentation.registry,
                               config.dimension);

  // One incremental two-view oracle per worker, retargeted between
  // trials. Caching across trials cannot perturb results: the oracle's
  // tables are bit-identical to run_egs on each trial's configuration.
  const std::size_t slots = std::max<std::size_t>(1, engine.workers());
  std::vector<std::unique_ptr<core::EgsOracle>> oracles(slots);

  struct TrialOut {
    bool valid = false;
    Ratio delivered;
    Ratio refused;
    Ratio stuck;
    Ratio optimal;
    Ratio suboptimal;
    Ratio valid_paths;
    double n2_nodes = 0.0;
  };

  core::UnicastOptions route_options;
  route_options.trace = config.route_trace;

  for (std::size_t pi = 0; pi < config.points.size(); ++pi) {
    const auto [nf, lf] = config.points[pi];
    LinkSweepPoint point;
    point.node_faults = nf;
    point.link_faults = lf;

    const auto trials = engine.map<TrialOut>(
        pi, config.trials,
        [&](exp::TrialContext& ctx) {
          TrialOut out;
          const fault::FaultSet faults =
              fault::inject_uniform(cube, nf, ctx.rng);
          const fault::LinkFaultSet links =
              fault::inject_links_uniform(cube, lf, ctx.rng);
          if (faults.healthy_count() < 2) return out;
          out.valid = true;

          auto& oracle = oracles[ctx.worker];
          if (!oracle) {
            oracle = std::make_unique<core::EgsOracle>(cube, faults, links);
          } else {
            oracle->retarget(faults, links);
          }
          const core::EgsViews views = oracle->views();
          for (NodeId a = 0; a < cube.num_nodes(); ++a) {
            if (oracle->in_n2(a)) out.n2_nodes += 1.0;
          }

          for (unsigned p = 0; p < config.pairs; ++p) {
            const auto pair = sample_uniform_pair(faults, ctx.rng);
            if (!pair) break;
            const auto r = core::route_unicast_egs(
                cube, faults, links, views, pair->s, pair->d, route_options);
            out.delivered.add(r.delivered());
            out.refused.add(r.status == core::RouteStatus::kSourceRefused);
            out.stuck.add(r.status == core::RouteStatus::kStuck);
            if (r.delivered()) {
              out.optimal.add(r.status ==
                              core::RouteStatus::kDeliveredOptimal);
              out.suboptimal.add(r.status ==
                                 core::RouteStatus::kDeliveredSuboptimal);
              out.valid_paths.add(
                  analysis::check_path_with_links(cube, faults, links, r.path)
                      .cls != analysis::PathClass::kInvalid);
            }
          }
          return out;
        },
        &point.timing);

    for (const TrialOut& t : trials) {
      if (!t.valid) continue;
      point.delivered.merge(t.delivered);
      point.refused.merge(t.refused);
      point.stuck.merge(t.stuck);
      point.optimal.merge(t.optimal);
      point.suboptimal.merge(t.suboptimal);
      point.valid_paths.merge(t.valid_paths);
      point.n2_nodes.add(t.n2_nodes);
    }

    emit_sweep_point(
        config.trace, "links", nf, point.timing,
        static_cast<unsigned>(engine.workers()),
        {{"link_faults", static_cast<double>(lf)},
         {"delivered_pct", point.delivered.percent()},
         {"optimal_pct", point.optimal.percent()},
         {"suboptimal_pct", point.suboptimal.percent()},
         {"refused_pct", point.refused.percent()},
         {"stuck_pct", point.stuck.percent()},
         {"valid_paths_pct", point.valid_paths.percent()},
         {"n2_nodes_mean", point.n2_nodes.mean()}});
    config.instrumentation.tick();
    points.push_back(std::move(point));
  }
  return points;
}

std::vector<DiagSweepPoint> run_diagnosis_sweep(const DiagSweepConfig& config) {
  const topo::Hypercube cube(config.dimension);
  std::vector<DiagSweepPoint> points;
  points.reserve(config.fault_counts.size());

  exp::SweepEngine engine({config.threads, config.seed,
                           config.instrumentation.registry,
                           config.instrumentation.profiler});
  RouteInstruments instruments(config.instrumentation.registry,
                               config.dimension);

  // Two level tables per worker — the ground world and the believed one.
  // Retargeting between trials is sound (Theorem-1 uniqueness makes the
  // oracle bit-identical to a from-scratch GS), so trial results cannot
  // depend on which worker ran them.
  const std::size_t slots = std::max<std::size_t>(1, engine.workers());
  std::vector<std::unique_ptr<core::SafetyOracle>> ground_oracles(slots);
  std::vector<std::unique_ptr<core::SafetyOracle>> diag_oracles(slots);

  struct TrialOut {
    bool valid = false;
    std::uint64_t missed = 0;
    std::uint64_t false_accusations = 0;
    bool exact = false;
    std::uint64_t attempts = 0;
    std::uint64_t delivered = 0;
    std::uint64_t refused = 0;
    std::uint64_t dropped = 0;
    std::uint64_t planned_optimal = 0;  ///< of ground deliveries
    std::uint64_t misrouted = 0;
    std::uint64_t false_rejects = 0;
    std::uint64_t optimism_drops = 0;
    std::uint64_t pessimism_detours = 0;
  };

  core::UnicastOptions route_options;
  route_options.trace = config.route_trace;

  for (std::size_t pi = 0; pi < config.fault_counts.size(); ++pi) {
    const std::uint64_t fault_count = config.fault_counts[pi];
    DiagSweepPoint point;
    point.fault_count = config.fixed_faults != nullptr
                            ? config.fixed_faults->count()
                            : fault_count;

    const auto trials = engine.map<TrialOut>(
        pi, config.trials,
        [&](exp::TrialContext& ctx) {
          TrialOut out;
          const fault::FaultSet ground =
              config.fixed_faults != nullptr
                  ? *config.fixed_faults
                  : inject(cube, config.injection, fault_count, ctx.rng);
          if (ground.healthy_count() < 2) return out;
          out.valid = true;

          auto& ground_oracle = ground_oracles[ctx.worker];
          if (!ground_oracle) {
            ground_oracle = std::make_unique<core::SafetyOracle>(cube, ground);
          } else {
            ground_oracle->retarget(ground);
          }

          diag::Diagnosis diagnosis;
          if (config.ground_truth_arm) {
            diagnosis.presumed = ground;
          } else {
            diagnosis = diag::diagnose(cube, ground, config.syndrome,
                                       config.decoder, ctx.rng);
          }
          out.missed = diagnosis.missed.size();
          out.false_accusations = diagnosis.false_accusations.size();
          out.exact = diagnosis.exact();

          auto& diag_oracle = diag_oracles[ctx.worker];
          if (!diag_oracle) {
            diag_oracle =
                std::make_unique<core::SafetyOracle>(cube, diagnosis.presumed);
          } else {
            diag_oracle->retarget(diagnosis.presumed);
          }

          for (unsigned p = 0; p < config.pairs; ++p) {
            const auto pair = sample_uniform_pair(ground, ctx.rng);
            if (!pair) break;
            const diag::DiagnosedRouteResult r = diag::route_diagnosed(
                cube, ground, ground_oracle->levels(), diagnosis.presumed,
                diag_oracle->levels(), pair->s, pair->d, route_options);
            instruments.record_walk(r.planned.path, r.delivered);
            ++out.attempts;
            out.delivered += r.delivered ? 1 : 0;
            out.refused +=
                r.planned.status == core::RouteStatus::kSourceRefused ? 1 : 0;
            out.dropped += r.dropped ? 1 : 0;
            if (r.delivered) {
              out.planned_optimal +=
                  r.planned.status == core::RouteStatus::kDeliveredOptimal
                      ? 1
                      : 0;
            }
            switch (r.misroute) {
              case diag::MisrouteClass::kNone:
                break;
              case diag::MisrouteClass::kFalseRejectAtSource:
                ++out.false_rejects;
                break;
              case diag::MisrouteClass::kOptimismDrop:
                ++out.optimism_drops;
                break;
              case diag::MisrouteClass::kPessimismDetour:
                ++out.pessimism_detours;
                break;
            }
            out.misrouted += r.misroute != diag::MisrouteClass::kNone ? 1 : 0;
          }
          return out;
        },
        &point.timing);

    for (const TrialOut& t : trials) {
      if (!t.valid) {
        point.digest = exp::mix64(point.digest ^ 0x1D1E);
        continue;
      }
      point.missed.add(static_cast<double>(t.missed));
      point.false_accusations.add(static_cast<double>(t.false_accusations));
      point.exact_diagnosis.add(t.exact);
      add_many(point.delivered, t.delivered, t.attempts);
      add_many(point.refused, t.refused, t.attempts);
      add_many(point.dropped, t.dropped, t.attempts);
      add_many(point.optimal, t.planned_optimal, t.delivered);
      add_many(point.misrouted, t.misrouted, t.attempts);
      point.false_rejects += t.false_rejects;
      point.optimism_drops += t.optimism_drops;
      point.pessimism_detours += t.pessimism_detours;
      // Trial-order digest over every integer tally: bit-identical runs
      // and only bit-identical runs agree.
      point.digest = exp::mix64(point.digest ^ t.missed);
      point.digest = exp::mix64(point.digest ^ t.false_accusations);
      point.digest = exp::mix64(point.digest ^ t.delivered);
      point.digest = exp::mix64(point.digest ^ t.refused);
      point.digest = exp::mix64(point.digest ^ t.dropped);
      point.digest = exp::mix64(point.digest ^ t.false_rejects);
      point.digest = exp::mix64(point.digest ^ t.optimism_drops);
      point.digest = exp::mix64(point.digest ^ t.pessimism_detours);
    }

    emit_sweep_point(
        config.trace, "diag", point.fault_count, point.timing,
        static_cast<unsigned>(engine.workers()),
        {{"missed_mean", point.missed.mean()},
         {"false_accusations_mean", point.false_accusations.mean()},
         {"exact_diagnosis_pct", point.exact_diagnosis.percent()},
         {"delivered_pct", point.delivered.percent()},
         {"refused_pct", point.refused.percent()},
         {"dropped_pct", point.dropped.percent()},
         {"optimal_pct", point.optimal.percent()},
         {"misrouted_pct", point.misrouted.percent()},
         {"false_rejects", static_cast<double>(point.false_rejects)},
         {"optimism_drops", static_cast<double>(point.optimism_drops)},
         {"pessimism_detours", static_cast<double>(point.pessimism_detours)}});
    config.instrumentation.tick();
    points.push_back(std::move(point));
  }
  return points;
}

}  // namespace slcube::workload
