// DIAGNOSIS — routing on beliefs: ground-truth vs diagnosed vs
// adversarial fault pictures (src/diag + exp::adversarial_search).
//
// Arms, all through the identical run_diagnosis_sweep code path:
//   ground   — presumed == ground truth (the control; misroutes must be 0)
//   pmc-rand — PMC tests, faulty testers flip coins
//   pmc-adv  — PMC tests, faulty testers lie adversarially
//   mm-adv   — MM* comparison tests, adversarial liars
//   adv-place— pmc-adv on the WORST fault placement the adversarial
//              search finds (vs its own random-placement control)
// The pmc-adv arm runs twice, serial and at --threads, and the run
// aborts if the digests differ — the determinism witness. With --audit
// every route's trace (including its misroute postmortem) streams
// through obs::AuditSink, and the audit's per-class misroute counts are
// cross-checked against the sweep's own tallies. --bench-json writes
// every arm's tallies and digest and the search's scores, which CI
// compares exactly against BENCH_DIAG.json; the arms' wall times are
// printed, not recorded. --telemetry reruns pmc-adv with the flight
// recorder attached and digest-checks it too.
#include <iostream>
#include <map>
#include <memory>

#include "bench_util.hpp"
#include "exp/adversarial.hpp"
#include "workload/experiment.hpp"

using namespace slcube;

namespace {

struct ArmResult {
  std::string name;
  std::vector<workload::DiagSweepPoint> points;
  std::uint64_t digest = 0;
  double wall_ms = 0.0;
  std::uint64_t attempts = 0;
  std::uint64_t delivered = 0;
  std::uint64_t misrouted = 0;
  std::uint64_t false_rejects = 0;
  std::uint64_t optimism_drops = 0;
  std::uint64_t pessimism_detours = 0;
};

ArmResult run_arm(const std::string& name, workload::DiagSweepConfig config) {
  ArmResult arm;
  arm.name = name;
  arm.points = run_diagnosis_sweep(config);
  for (const auto& p : arm.points) {
    arm.digest = exp::mix64(arm.digest ^ p.digest);
    arm.wall_ms += p.timing.wall_ms;
    arm.attempts += p.delivered.total();
    arm.delivered += p.delivered.hits();
    arm.misrouted += p.misrouted.hits();
    arm.false_rejects += p.false_rejects;
    arm.optimism_drops += p.optimism_drops;
    arm.pessimism_detours += p.pessimism_detours;
  }
  return arm;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(
      argc, argv,
      bench::kJsonl | bench::kAudit | bench::kDim | bench::kTrials |
          bench::kSeed | bench::kThreads | bench::kBenchJson |
          bench::kTelemetry);
  const std::vector<unsigned> dims =
      opt.dim ? std::vector<unsigned>{opt.dim} : std::vector<unsigned>{5, 6, 7};
  const unsigned trials = opt.trials ? opt.trials : 120;
  const unsigned pairs = 24;
  const std::uint64_t seed = opt.seed ? opt.seed : 0xD1A6;

  // The audit's structural checks are dimension-aware, so each swept
  // dimension gets its own sink; reports are merged at the end.
  const auto jsonl = opt.make_jsonl_sink();
  std::vector<std::unique_ptr<obs::AuditSink>> audits;
  std::vector<std::unique_ptr<obs::TeeSink>> tees;
  for (const unsigned dim : dims) {
    audits.push_back(opt.make_audit_sink(dim));
    std::vector<obs::TraceSink*> fan;
    if (jsonl) fan.push_back(jsonl.get());
    if (audits.back()) fan.push_back(audits.back().get());
    tees.push_back(fan.empty() ? nullptr
                               : std::make_unique<obs::TeeSink>(fan));
  }

  bench::TelemetrySession telemetry(opt);

  const auto base_config = [&](std::size_t di) {
    const unsigned dim = dims[di];
    workload::DiagSweepConfig c;
    c.dimension = dim;
    const std::uint64_t n = dim;
    const std::uint64_t nodes = std::uint64_t{1} << dim;
    c.fault_counts = {n, nodes / 8, nodes / 4};
    c.trials = trials;
    c.pairs = pairs;
    c.seed = seed + dim;  // per-dim substream family
    c.threads = opt.threads;
    c.trace = tees[di].get();
    // Per-route events stream only into the audit sink, whose lanes keep
    // each worker's chains apart; one JSONL file would interleave them,
    // so it gets point events only.
    c.route_trace = audits[di].get();
    return c;
  };

  ArmResult ground, pmc_rand, pmc_adv, mm_adv;
  std::uint64_t pmc_adv_serial_digest = 0;
  for (std::size_t di = 0; di < dims.size(); ++di) {
    const auto accumulate = [&](ArmResult& into, const ArmResult& part) {
      into.name = part.name;
      into.digest = exp::mix64(into.digest ^ part.digest);
      into.wall_ms += part.wall_ms;
      into.attempts += part.attempts;
      into.delivered += part.delivered;
      into.misrouted += part.misrouted;
      into.false_rejects += part.false_rejects;
      into.optimism_drops += part.optimism_drops;
      into.pessimism_detours += part.pessimism_detours;
      for (const auto& p : part.points) into.points.push_back(p);
    };

    {
      auto c = base_config(di);
      c.ground_truth_arm = true;
      accumulate(ground, run_arm("ground", c));
    }
    {
      auto c = base_config(di);
      c.syndrome = {diag::TestModel::kPmc, diag::LiarPolicy::kRandom};
      accumulate(pmc_rand, run_arm("pmc-rand", c));
    }
    {
      auto c = base_config(di);
      c.syndrome = {diag::TestModel::kPmc, diag::LiarPolicy::kAdversarial};
      accumulate(pmc_adv, run_arm("pmc-adv", c));
      // Determinism witness: the identical sweep, serial, without the
      // shared sinks (tracing cannot change results; skipping it keeps
      // the audit stream free of duplicate routes).
      c.threads = 1;
      c.trace = nullptr;
      c.route_trace = nullptr;
      const ArmResult serial = run_arm("pmc-adv-serial", c);
      pmc_adv_serial_digest = exp::mix64(pmc_adv_serial_digest ^ serial.digest);
    }
    {
      auto c = base_config(di);
      c.syndrome = {diag::TestModel::kMmStar, diag::LiarPolicy::kAdversarial};
      accumulate(mm_adv, run_arm("mm-adv", c));
    }
  }

  if (pmc_adv.digest != pmc_adv_serial_digest) {
    std::cerr << "FATAL: pmc-adv digests diverged between --threads and "
                 "serial — the diagnosis sweep is not deterministic\n";
    return 1;
  }

  // Adversarial placement search on one dimension (the first), both
  // objectives, then a diagnosed sweep pinned to the worst placement.
  const unsigned adv_dim = dims.front();
  const topo::Hypercube adv_cube(adv_dim);
  exp::AdversarialConfig adv;
  adv.fault_count = 2 * adv_dim;
  adv.seed = seed;
  adv.threads = opt.threads;
  adv.objective = exp::Objective::kSourceRejects;
  const exp::AdversarialResult rejects =
      exp::adversarial_search(adv_cube, adv);
  adv.objective = exp::Objective::kDetours;
  const exp::AdversarialResult detours =
      exp::adversarial_search(adv_cube, adv);
  const bool beats_random = rejects.best_score > rejects.random_best &&
                            detours.best_score > detours.random_best;

  ArmResult adv_place;
  {
    auto c = base_config(0);
    c.syndrome = {diag::TestModel::kPmc, diag::LiarPolicy::kAdversarial};
    c.fault_counts = {adv.fault_count};
    c.fixed_faults = &rejects.best;
    adv_place = run_arm("adv-place", c);
  }

  const std::vector<const ArmResult*> arms = {&ground, &pmc_rand, &pmc_adv,
                                              &mm_adv, &adv_place};
  Table table(
      "DIAGNOSIS: routing on the believed fault set (dims " +
          std::to_string(dims.front()) + ".." + std::to_string(dims.back()) +
          ", " + std::to_string(trials) + " trials x " +
          std::to_string(pairs) + " pairs per point)",
      {"arm", "attempts", "delivered", "misrouted", "false rej", "opt drop",
       "pess detour", "wall ms"});
  table.set_precision(7, 1);
  for (const ArmResult* a : arms) {
    table.row() << a->name.c_str() << static_cast<std::int64_t>(a->attempts)
                << static_cast<std::int64_t>(a->delivered)
                << static_cast<std::int64_t>(a->misrouted)
                << static_cast<std::int64_t>(a->false_rejects)
                << static_cast<std::int64_t>(a->optimism_drops)
                << static_cast<std::int64_t>(a->pessimism_detours)
                << a->wall_ms;
  }
  bench::emit(table, opt);

  Table search("ADVERSARIAL SEARCH: worst " + std::to_string(adv.fault_count) +
                   "-fault placement, Q" + std::to_string(adv_dim) + " (" +
                   std::to_string(adv.probes) + " probes, " +
                   std::to_string(adv.restarts) + " restarts)",
               {"objective", "best", "random best", "random mean", "evals"});
  search.set_precision(3, 2);
  search.row() << "source-rejects"
               << static_cast<std::int64_t>(rejects.best_score)
               << static_cast<std::int64_t>(rejects.random_best)
               << rejects.random_mean
               << static_cast<std::int64_t>(rejects.evals);
  search.row() << "detours" << static_cast<std::int64_t>(detours.best_score)
               << static_cast<std::int64_t>(detours.random_best)
               << detours.random_mean
               << static_cast<std::int64_t>(detours.evals);
  bench::emit(search, opt);

  std::cout << "pmc-adv digest identical at --threads and serial: yes ("
            << pmc_adv.digest << ")\n"
            << "adversarial search beats random placement: "
            << (beats_random ? "yes" : "NO") << "\n";

  int audit_rc = 0;
  if (opt.audit) {
    // The audited arms' own tallies must reappear, class by class, in
    // the merged per-dimension audit attribution — every misroute
    // accounted for and classified.
    std::uint64_t misroutes = 0;
    std::map<std::string, std::uint64_t> by_class;
    for (const auto& audit : audits) {
      const int rc = bench::finish_audit(audit.get());
      if (rc != 0) audit_rc = rc;
      const obs::AuditReport report = audit->report();
      misroutes += report.misroutes;
      for (const auto& [cls, n] : report.misroutes_by_class) {
        by_class[cls] += n;
      }
    }
    std::uint64_t want_fr = 0, want_od = 0, want_pd = 0, want_attempts = 0;
    for (const ArmResult* a : arms) {
      want_fr += a->false_rejects;
      want_od += a->optimism_drops;
      want_pd += a->pessimism_detours;
      want_attempts += a->attempts;
    }
    const bool attribution_ok =
        by_class["false-reject-source"] == want_fr &&
        by_class["optimism-drop"] == want_od &&
        by_class["pessimism-detour"] == want_pd &&
        misroutes == want_fr + want_od + want_pd &&
        by_class["none"] == want_attempts - (want_fr + want_od + want_pd);
    std::cout << "audit attribution matches sweep tallies: "
              << (attribution_ok ? "yes" : "NO") << "\n";
    if (!attribution_ok) {
      std::cerr << "FATAL: audit misroute attribution disagrees with the "
                   "sweep tallies\n";
      return 1;
    }
  }

  if (telemetry.enabled()) {
    auto c = base_config(0);
    c.syndrome = {diag::TestModel::kPmc, diag::LiarPolicy::kAdversarial};
    c.trace = nullptr;
    c.route_trace = nullptr;
    c.instrumentation = telemetry.hooks();
    const ArmResult telemetered = run_arm("pmc-adv-telemetry", c);
    std::uint64_t want = 0;
    {
      auto plain = base_config(0);
      plain.syndrome = {diag::TestModel::kPmc, diag::LiarPolicy::kAdversarial};
      plain.trace = nullptr;
      plain.route_trace = nullptr;
      want = run_arm("pmc-adv-plain", plain).digest;
    }
    if (telemetered.digest != want) {
      std::cerr << "FATAL: telemetry-enabled run diverged\n";
      return 1;
    }
    const unsigned workers = telemetered.points.front().timing.workers;
    if (!telemetry.finish(dims.front(), workers)) return 2;
    std::cout << "telemetry: digest matches untelemetered run ("
              << opt.telemetry_file << ")\n";
  }

  const bool written = bench::write_record(opt, [&](obs::JsonWriter& w) {
    w.field("bench", "diagnosis")
        .field("dims", std::to_string(dims.front()) + ".." +
                           std::to_string(dims.back()))
        .field("trials", trials)
        .field("pairs", pairs);
    for (const ArmResult* a : arms) {
      std::string key = a->name;
      for (char& ch : key) {
        if (ch == '-') ch = '_';
      }
      w.field(key + "_attempts", a->attempts)
          .field(key + "_delivered", a->delivered)
          .field(key + "_misrouted", a->misrouted)
          .field(key + "_false_rejects", a->false_rejects)
          .field(key + "_optimism_drops", a->optimism_drops)
          .field(key + "_pessimism_detours", a->pessimism_detours)
          .field(key + "_digest", a->digest);
    }
    w.field("adv_fault_count", adv.fault_count)
        .field("adv_rejects_best", rejects.best_score)
        .field("adv_rejects_random_best", rejects.random_best)
        .field("adv_detours_best", detours.best_score)
        .field("adv_detours_random_best", detours.random_best)
        .field("adv_evals", rejects.evals + detours.evals)
        .field("adversarial_beats_random", beats_random)
        .field("threads_invariant", true);
  });
  if (!written) return 2;

  if (audit_rc != 0) return audit_rc;
  return beats_random ? 0 : 1;
}
