// COMP — the Section 1 qualitative comparison made quantitative: the
// safety-level router against all six baselines on identical fault sets
// and unicast pairs. Reports delivery, optimality, bound adherence,
// traffic, refusal correctness and preparation rounds per fault count.
// Also runs DESIGN.md ablation #1 (lowest-dim vs random tie-break).
#include <iostream>

#include "baselines/chiu_wu.hpp"
#include "baselines/dfs_backtrack.hpp"
#include "baselines/ecube.hpp"
#include "baselines/greedy_local.hpp"
#include "baselines/lee_hayes.hpp"
#include "baselines/safety_level_router.hpp"
#include "baselines/sidetrack.hpp"
#include "bench_util.hpp"
#include "common/format.hpp"
#include "workload/experiment.hpp"

namespace {

using namespace slcube;

// The safety-level router is the only baseline that traces (and the only
// one whose invariants the auditor knows); `trace` may be null.
workload::RouterFactory full_factory(obs::TraceSink* trace) {
  return [trace](std::uint64_t seed) {
    core::UnicastOptions traced;
    traced.trace = trace;
    std::vector<std::unique_ptr<routing::Router>> v;
    v.push_back(std::make_unique<baselines::SafetyLevelRouter>(traced));
    v.push_back(std::make_unique<baselines::LeeHayesRouter>());
    v.push_back(std::make_unique<baselines::ChiuWuRouter>());
    v.push_back(std::make_unique<baselines::DfsBacktrackRouter>());
    v.push_back(std::make_unique<baselines::SidetrackRouter>(seed * 2 + 1));
    v.push_back(std::make_unique<baselines::GreedyLocalRouter>());
    v.push_back(std::make_unique<baselines::EcubeRouter>());
    return v;
  };
}

void print_point(const workload::SweepPoint& point,
                 const bench::Options& opt, const std::string& title) {
  Table t(title,
          {"router", "delivered%", "optimal%", "<=H+2%", "avg traffic",
           "refused%", "refusal ok%"});
  for (std::size_t c = 1; c <= 6; ++c) t.set_precision(c, 2);
  for (const auto& [name, m] : point.per_router) {
    t.row() << name << m.delivered.percent() << m.optimal.percent()
            << m.bound_h2.percent() << m.traffic.mean()
            << m.refused.percent() << m.refusal_correct.percent();
  }
  bench::emit(t, opt);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace slcube;
  const auto opt = bench::Options::parse(
      argc, argv,
      bench::kJsonl | bench::kAudit | bench::kDim | bench::kTrials |
          bench::kSeed | bench::kThreads | bench::kTelemetry);
  const auto jsonl = opt.make_jsonl_sink();

  workload::SweepConfig cfg;
  cfg.dimension = opt.dim ? opt.dim : 7;
  const auto audit = opt.make_audit_sink(cfg.dimension);
  // Sweep points go to both sinks; route events from the safety-level
  // router reach the auditor through the factory below.
  obs::TeeSink tee({jsonl.get(), audit.get()});
  // With --dim below 7, drop the points a smaller cube cannot host.
  cfg.fault_counts = {2, 6, 10, 16, 24, 40};
  std::erase_if(cfg.fault_counts, [&](std::uint64_t f) {
    return f + 2 > (1ull << cfg.dimension);
  });
  cfg.trials = opt.trials ? opt.trials : 120;
  cfg.pairs = 24;
  cfg.seed = opt.seed ? opt.seed : 0xC0111;
  cfg.threads = opt.threads;
  cfg.trace = &tee;
  bench::TelemetrySession telemetry(opt);
  cfg.instrumentation = telemetry.hooks();
  const std::string cube = "Q" + std::to_string(cfg.dimension);

  const auto points = workload::run_routing_sweep(cfg, full_factory(audit.get()));
  for (const auto& p : points) {
    print_point(p, opt,
                "COMP: " + cube + " uniform faults = " +
                    std::to_string(p.fault_count) +
                    " (" + std::to_string(cfg.trials) + " fault sets, " +
                    std::to_string(cfg.pairs) + " pairs each, disconnected " +
                    percent(p.disconnected.value()) + ")");
  }

  // Clustered faults stress locality.
  cfg.injection = workload::InjectionKind::kClustered;
  cfg.fault_counts = {10, 24};
  std::erase_if(cfg.fault_counts, [&](std::uint64_t f) {
    return f + 2 > (1ull << cfg.dimension);
  });
  const auto clustered = workload::run_routing_sweep(cfg, full_factory(audit.get()));
  for (const auto& p : clustered) {
    print_point(p, opt,
                "COMP (clustered faults = " + std::to_string(p.fault_count) +
                    ")");
  }

  // Ablation #1: tie-break policy of the safety-level router.
  workload::SweepConfig ab = cfg;
  ab.injection = workload::InjectionKind::kUniform;
  ab.fault_counts = {10, 24};
  std::erase_if(ab.fault_counts, [&](std::uint64_t f) {
    return f + 2 > (1ull << ab.dimension);
  });
  const auto ablation = workload::run_routing_sweep(
      ab, [&audit](std::uint64_t seed) {
        core::UnicastOptions traced;
        traced.trace = audit.get();
        std::vector<std::unique_ptr<routing::Router>> v;
        v.push_back(std::make_unique<baselines::SafetyLevelRouter>(traced));
        auto random_tie =
            baselines::SafetyLevelRouter::with_random_tie_break(seed);
        v.push_back(std::make_unique<baselines::SafetyLevelRouter>(
            std::move(random_tie)));
        return v;
      });
  for (const auto& p : ablation) {
    Table t("ABLATION #1: tie-break (both rows are the safety-level "
            "router), faults = " + std::to_string(p.fault_count),
            {"variant", "delivered%", "optimal%", "avg traffic"});
    for (std::size_t c = 1; c <= 3; ++c) t.set_precision(c, 2);
    const char* names[] = {"lowest-dim", "random"};
    for (std::size_t i = 0; i < p.per_router.size(); ++i) {
      const auto& m = p.per_router[i].second;
      t.row() << std::string(names[i]) << m.delivered.percent()
              << m.optimal.percent() << m.traffic.mean();
    }
    bench::emit(t, opt);
  }
  // A Q1 run drops every point, so no sweep ran and no worker either.
  const unsigned workers = points.empty() ? 0 : points.front().timing.workers;
  if (!telemetry.finish(cfg.dimension, workers)) return 2;
  return bench::finish_audit(audit.get());
}
