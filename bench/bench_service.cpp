// SERVICE — routing-as-a-service under live fault churn: the epoch layer
// (svc::SnapshotOracle) serving a thread-pool of router workers while one
// writer keeps publishing new fault configurations.
//
// Workload: `--readers` worker threads split `--requests` route requests;
// each request acquires the current snapshot, samples a healthy pair from
// it, and serves the route with svc::serve_route — decisions on the
// acquired (possibly already stale) epoch, every traversal judged against
// the latest published one. Meanwhile the churn writer applies one
// node/link event every `--churn-pause-us` (bench_egs_oracle's repair
// policy: ceilings at 2n faults, coin-flip repairs past 4), publishing
// one epoch per event and emitting node_fail/node_recover trace events.
//
// Reported: routes/sec, serve-latency p50/p90/p99/p999 (obs histograms),
// epochs published + epochs/sec, and the STALENESS split — of the routes
// that ran against a ground epoch newer than their decision epoch, how
// many were delivered anyway, delivered on the H+2 spare detour, or
// dropped in flight (every drop is stale by construction: ground ==
// decision cannot block a hop the decision tables allowed).
//
// Self-checks: every `--verify-every` requests each reader bit-compares
// its current snapshot's two views against a from-scratch run_egs of the
// snapshot's own fault configuration (the RCU guarantee), the outcome
// counts must sum to the request count, and --audit streams every route
// through the invariant-checking AuditSink. Outcome counts are
// interleaving-dependent, so the JSON baseline gates only the
// self-consistency flags, latencies, and rates (see scripts/bench_gate.py).
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/egs.hpp"
#include "exp/sweep_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/sampling.hpp"
#include "svc/serve.hpp"
#include "svc/snapshot_oracle.hpp"
#include "workload/pair_sampler.hpp"
#include "workload/service_script.hpp"

namespace {

using namespace slcube;
using Clock = std::chrono::steady_clock;

struct ServiceOptions {
  unsigned readers = 4;
  std::uint64_t requests = 1'000'000;
  unsigned churn_pause_us = 200;
  std::uint64_t verify_every = 8192;  ///< 0 = no in-flight verification
  // --sample: the deterministic tail-sampled tracing benchmark (see
  // run_sample_mode below) instead of the live churn workload.
  bool sample = false;
  std::uint64_t script_epochs = 64;  ///< scripted churn events
  std::uint32_t head_every = 1024;   ///< 1-in-N head sample modulus
};

/// Split off the service-specific flags, leaving everything else for
/// bench::Options::parse (whose parser is strict about unknown flags).
ServiceOptions take_service_flags(int& argc, char** argv) {
  ServiceOptions svc;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << argv[0] << ": flag " << flag
                  << " is missing its value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--readers") == 0) {
      svc.readers = static_cast<unsigned>(std::atoi(value("--readers")));
    } else if (std::strcmp(argv[i], "--requests") == 0) {
      svc.requests =
          static_cast<std::uint64_t>(std::atoll(value("--requests")));
    } else if (std::strcmp(argv[i], "--churn-pause-us") == 0) {
      svc.churn_pause_us =
          static_cast<unsigned>(std::atoi(value("--churn-pause-us")));
    } else if (std::strcmp(argv[i], "--verify-every") == 0) {
      svc.verify_every =
          static_cast<std::uint64_t>(std::atoll(value("--verify-every")));
    } else if (std::strcmp(argv[i], "--sample") == 0) {
      svc.sample = true;
    } else if (std::strcmp(argv[i], "--script-epochs") == 0) {
      svc.script_epochs =
          static_cast<std::uint64_t>(std::atoll(value("--script-epochs")));
    } else if (std::strcmp(argv[i], "--head-every") == 0) {
      svc.head_every =
          static_cast<std::uint32_t>(std::atoll(value("--head-every")));
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  if (svc.readers == 0) svc.readers = 1;
  return svc;
}

/// Per-reader outcome tallies; merged after the join.
struct Tally {
  std::uint64_t optimal = 0;
  std::uint64_t suboptimal = 0;
  std::uint64_t refused = 0;
  std::uint64_t stuck = 0;
  std::uint64_t dropped_source = 0;
  std::uint64_t dropped_node = 0;
  std::uint64_t dropped_link = 0;
  std::uint64_t no_pair = 0;  ///< < 2 healthy nodes at sample time
  // The staleness split: routes whose ground epoch outran their decision
  // epoch mid-flight, by what the staleness cost them.
  std::uint64_t stale_delivered = 0;  ///< delivered anyway, H hops
  std::uint64_t stale_detour = 0;     ///< delivered on the H+2 spare detour
  std::uint64_t stale_dropped = 0;    ///< died against the newer epoch
  std::uint64_t verifications = 0;

  void merge(const Tally& o) {
    optimal += o.optimal;
    suboptimal += o.suboptimal;
    refused += o.refused;
    stuck += o.stuck;
    dropped_source += o.dropped_source;
    dropped_node += o.dropped_node;
    dropped_link += o.dropped_link;
    no_pair += o.no_pair;
    stale_delivered += o.stale_delivered;
    stale_detour += o.stale_detour;
    stale_dropped += o.stale_dropped;
    verifications += o.verifications;
  }
  [[nodiscard]] std::uint64_t total() const {
    return optimal + suboptimal + refused + stuck + dropped_source +
           dropped_node + dropped_link + no_pair;
  }
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_source + dropped_node + dropped_link;
  }
};

/// The RCU contract, checked in flight: the snapshot's two views must be
/// bit-identical to a from-scratch run_egs of the snapshot's OWN fault
/// configuration, no matter how far the writer has moved on.
bool snapshot_matches_scratch(const topo::Hypercube& cube,
                              const svc::Snapshot& snap) {
  const core::EgsResult scratch = core::run_egs(cube, snap.faults, snap.links);
  return scratch.public_view == snap.public_view &&
         scratch.self_view == snap.self_view;
}

// ---------------------------------------------------------------------------
// --sample: the tail-sampled tracing benchmark. Replaces the racing
// churn writer with a workload::ServiceScript (every request a pure
// function of its index) so the SamplingSink's promotion decisions are
// interleaving-free, then runs four passes over the same requests:
//
//   A  untraced              -> the baseline routes/sec;
//   B  sampled, null sink    -> sampled routes/sec (the <5% overhead
//                               gate) and the promoted-route digest;
//   C  sampled, other thread
//      count                 -> digest must be bit-identical (the
//                               thread-invariance gate);
//   D  sampled, AuditSink    -> every promoted chain re-checked against
//      (+ --jsonl tee)          the paper invariants, sampler counters
//                               reconciled, 100% anomaly retention
//                               verified; digest must match B.
// ---------------------------------------------------------------------------

/// Per-thread tallies for one scripted pass.
struct SampleTally {
  std::uint64_t served = 0;
  std::uint64_t no_pair = 0;
  std::uint64_t anomalies = 0;  ///< dropped || detour || stale
  std::uint64_t dropped = 0;
  std::uint64_t detour = 0;
  std::uint64_t stale = 0;
  void merge(const SampleTally& o) {
    served += o.served;
    no_pair += o.no_pair;
    anomalies += o.anomalies;
    dropped += o.dropped;
    detour += o.detour;
    stale += o.stale;
  }
};

/// Run all requests through `body(i)` on `nthreads` threads (contiguous
/// static split, same as the live bench); returns wall ms.
template <typename Body>
double run_scripted_pass(std::uint64_t requests, unsigned nthreads,
                         const Body& body) {
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  pool.reserve(nthreads);
  std::uint64_t start = 0;
  for (unsigned r = 0; r < nthreads; ++r) {
    const std::uint64_t share =
        requests / nthreads + (r < requests % nthreads ? 1 : 0);
    pool.emplace_back([&body, r, start, share] {
      for (std::uint64_t i = start; i < start + share; ++i) body(r, i);
    });
    start += share;
  }
  for (auto& t : pool) t.join();
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Buffers a regenerated chain for SamplingSink::replay_chain.
class ChainCollector final : public obs::TraceSink {
 public:
  std::vector<obs::TraceEvent> events;
  void on_event(const obs::TraceEvent& ev) override { events.push_back(ev); }
};

void fold(const obs::RouteSummary& summary, SampleTally& tally) {
  ++tally.served;
  if (summary.dropped) ++tally.dropped;
  if (summary.detour) ++tally.detour;
  if (summary.stale()) ++tally.stale;
  if (summary.dropped || summary.detour || summary.stale()) ++tally.anomalies;
}

/// Serve untraced and offer the summary; only a promoted route is
/// re-served traced to regenerate its chain — unpromoted routes never pay
/// event construction.
void serve_replay(const workload::ServiceScript& script, std::uint64_t i,
                  std::uint64_t requests, obs::SamplingSink& sampler,
                  ChainCollector& collector, SampleTally& tally) {
  const auto req = script.request(i, requests);
  if (!req.has_pair) {
    ++tally.no_pair;
    return;
  }
  const svc::ServeResult res = script.serve(req);
  const obs::RouteSummary summary = workload::ServiceScript::summarize(req, res);
  const obs::SamplingSink::Offer offer = sampler.offer(summary);
  if (offer.promoted) {
    collector.events.clear();
    svc::ServeOptions serve_opt;
    serve_opt.trace = &collector;
    (void)script.serve(req, serve_opt);  // deterministic: same chain
    sampler.replay_chain(summary, offer.reason, collector.events);
  }
  fold(summary, tally);
}

obs::SamplingConfig make_sampling_config(const ServiceOptions& svc_opt,
                                         bool breadcrumb_summaries) {
  obs::SamplingConfig cfg;
  cfg.head_every = svc_opt.head_every;
  cfg.budget.unlimited = true;  // the deterministic (gated) configuration
  cfg.emit_breadcrumb_summaries = breadcrumb_summaries;
  return cfg;
}

int run_sample_mode(const ServiceOptions& svc_opt, const bench::Options& opt,
                    unsigned dim, std::uint64_t seed) {
  const unsigned readers = svc_opt.readers;
  const std::uint64_t requests = svc_opt.requests;

  workload::ServiceScriptConfig script_cfg;
  script_cfg.dim = dim;
  script_cfg.seed = seed;
  script_cfg.epochs = svc_opt.script_epochs;
  const workload::ServiceScript script(script_cfg);

  // --- passes A + B: untraced baseline vs sampled (replay mode, null
  // downstream) — the overhead measurement. The per-route delta under
  // test (~tens of ns) is smaller than run-to-run machine noise, so the
  // timing discipline matters: an untimed warmup pass burns off the
  // cold-start turbo/page-fault transient, then each rep times both
  // passes back to back with the order mirrored every other rep (A,B /
  // B,A / ...) so monotonic frequency drift cannot systematically favor
  // one side; the minima are compared. The workload is a pure function
  // of the request index, so every rep serves identical routes; the
  // sampler is rebuilt per rep because its promoted digest is an xor
  // fold (a repeated promotion would cancel itself).
  constexpr int kTimingReps = 4;
  std::vector<SampleTally> untraced_tallies(readers);
  std::vector<SampleTally> sampled_tallies(readers);
  obs::NullSink null_b;
  std::unique_ptr<obs::SamplingSink> sampler_b;
  double untraced_ms = std::numeric_limits<double>::infinity();
  double sampled_ms = std::numeric_limits<double>::infinity();

  const auto run_untraced = [&]() -> double {
    std::vector<SampleTally> untraced_rep(readers);
    const double ms =
        run_scripted_pass(requests, readers, [&](unsigned r, std::uint64_t i) {
          const auto req = script.request(i, requests);
          if (!req.has_pair) {
            ++untraced_rep[r].no_pair;
            return;
          }
          const svc::ServeResult res = script.serve(req);
          SampleTally& tally = untraced_rep[r];
          ++tally.served;
          if (res.dropped()) ++tally.dropped;
          if (res.status == svc::ServeStatus::kDeliveredSuboptimal)
            ++tally.detour;
          if (res.stale()) ++tally.stale;
          if (res.dropped() ||
              res.status == svc::ServeStatus::kDeliveredSuboptimal ||
              res.stale())
            ++tally.anomalies;
        });
    untraced_ms = std::min(untraced_ms, ms);
    untraced_tallies = std::move(untraced_rep);
    return ms;
  };
  const auto run_sampled = [&]() -> double {
    sampler_b = std::make_unique<obs::SamplingSink>(
        &null_b, make_sampling_config(svc_opt, false));
    script.emit_epoch_events(*sampler_b, requests);
    std::vector<SampleTally> sampled_rep(readers);
    std::vector<ChainCollector> collectors_b(readers);
    const double ms =
        run_scripted_pass(requests, readers, [&](unsigned r, std::uint64_t i) {
          serve_replay(script, i, requests, *sampler_b, collectors_b[r],
                       sampled_rep[r]);
        });
    sampled_ms = std::min(sampled_ms, ms);
    sampled_tallies = std::move(sampled_rep);
    return ms;
  };

  {  // warmup: untimed, half the requests through each path
    const std::uint64_t warm = std::max<std::uint64_t>(requests / 2, 1);
    run_scripted_pass(warm, readers, [&](unsigned, std::uint64_t i) {
      const auto req = script.request(i, requests);
      if (req.has_pair) (void)script.serve(req);
    });
  }
  // Overhead is judged per rep pair (the two passes run back to back,
  // so a machine-wide slowdown epoch hits both sides of a pair equally)
  // and the best pair wins — far more robust against multi-hundred-ms
  // noise than comparing two global minima taken seconds apart.
  double overhead_ratio = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kTimingReps; ++rep) {
    double a_ms = 0.0;
    double b_ms = 0.0;
    if (rep % 2 == 0) {
      a_ms = run_untraced();
      b_ms = run_sampled();
    } else {
      b_ms = run_sampled();
      a_ms = run_untraced();
    }
    if (a_ms > 0) overhead_ratio = std::min(overhead_ratio, b_ms / a_ms);
  }
  const obs::SamplingSink::Stats stats = sampler_b->stats();
  const std::uint64_t digest = sampler_b->promoted_digest();

  // --- pass C: same workload, different thread count -> same digest ----
  const unsigned alt_readers = readers == 1 ? 4 : 1;
  obs::NullSink null_c;
  obs::SamplingSink sampler_c(&null_c, make_sampling_config(svc_opt, false));
  std::vector<SampleTally> alt_tallies(alt_readers);
  std::vector<ChainCollector> collectors_c(alt_readers);
  run_scripted_pass(requests, alt_readers, [&](unsigned r, std::uint64_t i) {
    serve_replay(script, i, requests, sampler_c, collectors_c[r],
                 alt_tallies[r]);
  });
  const bool digest_invariant = sampler_c.promoted_digest() == digest;

  // --- pass D: sampled stream through the audit engine -----------------
  obs::AuditConfig audit_cfg;
  audit_cfg.dimension = dim;
  obs::AuditSink audit(audit_cfg);
  std::unique_ptr<obs::LockedJsonlSink> jsonl;
  if (!opt.jsonl_file.empty()) {
    jsonl = std::make_unique<obs::LockedJsonlSink>(opt.jsonl_file);
  }
  std::vector<obs::TraceSink*> fanout{&audit};
  if (jsonl != nullptr) fanout.push_back(jsonl.get());
  obs::TeeSink tee(fanout);
  // Breadcrumb summaries on when a JSONL artifact is requested, so the
  // exported timeline shows the unpromoted remainder too.
  obs::SamplingSink sampler_d(
      &tee, make_sampling_config(svc_opt, jsonl != nullptr));
  script.emit_epoch_events(sampler_d, requests);
  std::vector<SampleTally> audited_tallies(readers);
  std::vector<ChainCollector> collectors_d(readers);
  run_scripted_pass(requests, readers, [&](unsigned r, std::uint64_t i) {
    serve_replay(script, i, requests, sampler_d, collectors_d[r],
                 audited_tallies[r]);
  });
  const obs::SamplingSink::Stats audited = sampler_d.stats();
  audit.reconcile_sampling(audited.promoted, audited.breadcrumb_only,
                           audited.shed_events);
  audit.finish();
  const obs::AuditReport report = audit.report();
  const bool audit_clean = report.clean();
  const bool digest_audited_same = sampler_d.promoted_digest() == digest;

  // --- verdicts ---------------------------------------------------------
  SampleTally untraced_total, sampled_total;
  for (const auto& t : untraced_tallies) untraced_total.merge(t);
  for (const auto& t : sampled_tallies) sampled_total.merge(t);

  const auto reason_count = [&](obs::PromoteReason r) {
    return stats.promoted_by_reason[static_cast<std::size_t>(r)];
  };
  const std::uint64_t promoted_anomalies =
      reason_count(obs::PromoteReason::kDrop) +
      reason_count(obs::PromoteReason::kDetour) +
      reason_count(obs::PromoteReason::kStale) +
      reason_count(obs::PromoteReason::kMisroute);
  // 100% tail retention: every anomalous route kept its full chain (no
  // budget sheds, counts agree with ground truth).
  const bool retention_full = promoted_anomalies == sampled_total.anomalies &&
                              stats.shed_routes == 0;
  // Pass A and pass B saw the same workload (the script is a pure
  // function of the request index).
  const bool passes_identical =
      untraced_total.anomalies == sampled_total.anomalies &&
      untraced_total.served == sampled_total.served &&
      untraced_total.no_pair == sampled_total.no_pair;

  const double untraced_rate =
      untraced_ms > 0 ? 1000.0 * static_cast<double>(requests) / untraced_ms
                      : 0.0;
  const double sampled_rate =
      sampled_ms > 0 ? 1000.0 * static_cast<double>(requests) / sampled_ms
                     : 0.0;
  const double overhead_pct = std::isfinite(overhead_ratio)
                                  ? (overhead_ratio - 1.0) * 100.0
                                  : 0.0;

  Table throughput("SAMPLING: tail-sampled tracing vs untraced, Q" +
                       std::to_string(dim) + " (" + std::to_string(requests) +
                       " scripted requests, " +
                       std::to_string(script.num_epochs()) + " epochs, " +
                       std::to_string(readers) + " readers)",
                   {"metric", "value"});
  throughput.set_precision(1, 1);
  throughput.row() << "untraced routes / sec" << untraced_rate;
  throughput.row() << "sampled routes / sec" << sampled_rate;
  throughput.row() << "sampling overhead %" << overhead_pct;
  throughput.row() << "untraced wall ms" << untraced_ms;
  throughput.row() << "sampled wall ms" << sampled_ms;
  bench::emit(throughput, opt);

  const auto cell = [](std::uint64_t v) {
    return static_cast<std::int64_t>(v);
  };
  Table promo("SAMPLING: promotion (" + std::to_string(stats.routes) +
                  " routes, head 1-in-" + std::to_string(svc_opt.head_every) +
                  ")",
              {"reason", "promoted"});
  promo.row() << "head sample" << cell(reason_count(obs::PromoteReason::kHead));
  promo.row() << "drop" << cell(reason_count(obs::PromoteReason::kDrop));
  promo.row() << "H+2 detour"
              << cell(reason_count(obs::PromoteReason::kDetour));
  promo.row() << "stale epoch"
              << cell(reason_count(obs::PromoteReason::kStale));
  promo.row() << "total promoted" << cell(stats.promoted);
  promo.row() << "breadcrumb only" << cell(stats.breadcrumb_only);
  promo.row() << "shed (budget)" << cell(stats.shed_routes);
  bench::emit(promo, opt);

  std::cout << "promoted digest: " << digest << " — thread counts "
            << readers << "/" << alt_readers << "/audited "
            << (digest_invariant && digest_audited_same ? "bit-identical"
                                                        : "MISMATCH")
            << '\n'
            << "tail retention: " << promoted_anomalies << " of "
            << sampled_total.anomalies
            << " anomalous routes kept as full chains — "
            << (retention_full ? "complete" : "INCOMPLETE") << '\n'
            << "audit: " << report.events << " event(s), " << report.routes
            << " promoted route(s), " << report.breadcrumb_routes
            << " breadcrumb route(s) reconciled — "
            << (audit_clean ? "clean" : "VIOLATIONS") << '\n';
  if (!audit_clean) {
    for (const auto& v : report.details) {
      std::cout << "  [" << obs::to_string(v.kind) << "] " << v.detail
                << '\n';
    }
  }

  if (!opt.bench_json.empty()) {
    std::ofstream out(opt.bench_json, std::ios::trunc);
    if (!out) {
      std::cerr << "cannot open " << opt.bench_json << " for writing\n";
      return 2;
    }
    // Everything prefixed sampling_ is deterministic (scripted workload,
    // unlimited budget) and exact-gated except the *_per_sec rates; the
    // intra-run overhead check compares sampling_routes_per_sec against
    // untraced_routes_per_sec (scripts/bench_gate.py --sampling-overhead).
    out << "{\n"
        << "  \"bench\": \"sampling\",\n"
        << "  \"dim\": " << dim << ",\n"
        << "  \"readers\": " << readers << ",\n"
        << "  \"requests\": " << requests << ",\n"
        << "  \"script_epochs\": " << svc_opt.script_epochs << ",\n"
        << "  \"head_every\": " << svc_opt.head_every << ",\n"
        << "  \"untraced_wall_ms\": " << untraced_ms << ",\n"
        << "  \"sampled_wall_ms\": " << sampled_ms << ",\n"
        << "  \"untraced_routes_per_sec\": " << untraced_rate << ",\n"
        << "  \"sampling_routes_per_sec\": " << sampled_rate << ",\n"
        << "  \"sampling_overhead_pct\": " << overhead_pct << ",\n"
        << "  \"sampling_promoted_digest\": " << digest << ",\n"
        << "  \"sampling_routes\": " << stats.routes << ",\n"
        << "  \"sampling_promoted\": " << stats.promoted << ",\n"
        << "  \"sampling_breadcrumb_only\": " << stats.breadcrumb_only << ",\n"
        << "  \"sampling_promoted_head\": "
        << reason_count(obs::PromoteReason::kHead) << ",\n"
        << "  \"sampling_promoted_drop\": "
        << reason_count(obs::PromoteReason::kDrop) << ",\n"
        << "  \"sampling_promoted_detour\": "
        << reason_count(obs::PromoteReason::kDetour) << ",\n"
        << "  \"sampling_promoted_stale\": "
        << reason_count(obs::PromoteReason::kStale) << ",\n"
        << "  \"sampling_shed_routes\": " << stats.shed_routes << ",\n"
        << "  \"sampling_overflow_routes\": " << stats.overflow_routes
        << ",\n"
        << "  \"sampling_retention_full\": "
        << (retention_full ? "true" : "false") << ",\n"
        << "  \"sampling_digest_thread_invariant\": "
        << (digest_invariant && digest_audited_same ? "true" : "false")
        << ",\n"
        << "  \"sampling_audit_clean\": " << (audit_clean ? "true" : "false")
        << ",\n"
        << "  \"sampling_passes_identical\": "
        << (passes_identical ? "true" : "false") << "\n"
        << "}\n";
  }

  int rc = 0;
  if (!audit_clean) {
    std::cerr << "FATAL: sampled-stream audit found violations\n";
    rc = 1;
  }
  if (!retention_full) {
    std::cerr << "FATAL: anomalous routes lost their full chains\n";
    rc = 1;
  }
  if (!digest_invariant || !digest_audited_same) {
    std::cerr << "FATAL: promoted digest depends on the thread count\n";
    rc = 1;
  }
  if (!passes_identical) {
    std::cerr << "FATAL: scripted passes disagree on the workload\n";
    rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const ServiceOptions svc_opt = take_service_flags(argc, argv);
  const auto opt = bench::Options::parse(argc, argv);
  const unsigned dim = opt.dim ? opt.dim : 10;
  const std::uint64_t seed = opt.seed ? opt.seed : 0x5E51CE;
  const unsigned readers = svc_opt.readers;
  const std::uint64_t requests = svc_opt.requests;

  if (svc_opt.sample) return run_sample_mode(svc_opt, opt, dim, seed);

  const topo::Hypercube cube(dim);
  svc::SnapshotOracle oracle(cube);

  bench::TelemetrySession telemetry(opt);
  obs::Counter routes_counter;
  obs::Counter epochs_counter;
  obs::Histogram route_us_metric;
  if (telemetry.enabled()) {
    obs::Registry& reg = *telemetry.hooks().registry;
    routes_counter = reg.counter("svc.routes");
    epochs_counter = reg.counter("svc.epochs");
    route_us_metric =
        reg.histogram("svc.route_us", obs::exponential_bounds(0.05, 1.3, 48));
  }

  const auto audit = opt.make_audit_sink(dim);
  // Whole-line-locked JSONL so reader threads may share the file. Lanes
  // still interleave in the output — replaying a multi-reader file
  // through the single-lane JSONL auditor will report broken chains; use
  // --jsonl with --readers 1 for replays.
  std::unique_ptr<obs::LockedJsonlSink> locked_jsonl;
  if (!opt.jsonl_file.empty()) {
    locked_jsonl = std::make_unique<obs::LockedJsonlSink>(opt.jsonl_file);
  }
  std::vector<obs::TraceSink*> fanout;
  if (audit != nullptr) fanout.push_back(audit.get());
  if (locked_jsonl != nullptr) fanout.push_back(locked_jsonl.get());
  obs::TeeSink tee(fanout);
  obs::TraceSink* const trace = fanout.empty() ? nullptr : &tee;

  // --- churn writer -----------------------------------------------------
  std::atomic<bool> stop_churn{false};
  std::atomic<bool> consistent{true};
  std::thread writer([&] {
    Xoshiro256ss rng = exp::substream(seed, /*stream=*/0, /*trial=*/0);
    fault::FaultSet faults(cube.num_nodes());
    fault::LinkFaultSet links(cube);
    const std::uint64_t node_ceiling = 2 * cube.dimension();
    const std::size_t link_ceiling = 2 * cube.dimension();
    while (!stop_churn.load(std::memory_order_relaxed)) {
      if (rng.chance(0.5)) {
        const bool repair = faults.count() >= node_ceiling ||
                            (faults.count() > 4 && rng.chance(0.3));
        if (repair) {
          const auto faulty = faults.faulty_nodes();
          const NodeId back = faulty[rng.below(faulty.size())];
          faults.mark_healthy(back);
          oracle.remove_fault(back);
          if (trace != nullptr) {
            obs::NodeRecoverEvent ev;
            ev.time = oracle.epoch();
            ev.node = back;
            trace->on_event(ev);
          }
        } else {
          NodeId victim;
          do {
            victim = static_cast<NodeId>(rng.below(cube.num_nodes()));
          } while (faults.is_faulty(victim));
          faults.mark_faulty(victim);
          oracle.add_fault(victim);
          if (trace != nullptr) {
            obs::NodeFailEvent ev;
            ev.time = oracle.epoch();
            ev.node = victim;
            trace->on_event(ev);
          }
        }
      } else {
        const bool repair = links.count() >= link_ceiling ||
                            (links.count() > 4 && rng.chance(0.3));
        if (repair) {
          const auto faulty = links.faulty_links();
          const auto [a, d] = faulty[rng.below(faulty.size())];
          links.mark_healthy(a, d);
          oracle.recover_link(a, d);
        } else {
          NodeId a;
          Dim d;
          do {
            a = static_cast<NodeId>(rng.below(cube.num_nodes()));
            d = static_cast<Dim>(rng.below(cube.dimension()));
          } while (links.is_faulty(a, d));
          links.mark_faulty(a, d);
          oracle.fail_link(a, d);
        }
      }
      if (telemetry.enabled()) epochs_counter.inc();
      if (svc_opt.churn_pause_us > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(svc_opt.churn_pause_us));
      }
    }
  });

  // --- router workers ---------------------------------------------------
  const auto latency_bounds = obs::exponential_bounds(0.05, 1.3, 48);
  std::vector<Tally> tallies(readers);
  std::vector<obs::HistogramData> latencies(readers,
                                            obs::HistogramData(latency_bounds));
  telemetry.tick();  // baseline sample before the serving phase
  const auto t0 = Clock::now();
  {
    std::vector<std::thread> pool;
    pool.reserve(readers);
    for (unsigned r = 0; r < readers; ++r) {
      const std::uint64_t share =
          requests / readers + (r < requests % readers ? 1 : 0);
      pool.emplace_back([&, r, share] {
        Xoshiro256ss rng = exp::substream(seed, /*stream=*/1 + r, 0);
        Tally& tally = tallies[r];
        obs::HistogramData& lat = latencies[r];
        svc::ServeOptions serve_opt;
        serve_opt.trace = trace;
        for (std::uint64_t i = 0; i < share; ++i) {
          const svc::SnapshotPtr snap = oracle.acquire();
          if (svc_opt.verify_every > 0 && i % svc_opt.verify_every == 0) {
            if (!snapshot_matches_scratch(cube, *snap)) {
              consistent.store(false, std::memory_order_relaxed);
            }
            ++tally.verifications;
          }
          const auto pair = workload::sample_uniform_pair(snap->faults, rng);
          if (!pair) {
            ++tally.no_pair;
            continue;
          }
          const auto start = Clock::now();
          const svc::ServeResult res =
              svc::serve_route(oracle, snap, pair->s, pair->d, serve_opt);
          const double us =
              std::chrono::duration<double, std::micro>(Clock::now() - start)
                  .count();
          lat.observe(us);
          if (telemetry.enabled()) {
            route_us_metric.observe(us);
            routes_counter.inc();
          }
          switch (res.status) {
            case svc::ServeStatus::kDeliveredOptimal:
              ++tally.optimal;
              break;
            case svc::ServeStatus::kDeliveredSuboptimal:
              ++tally.suboptimal;
              break;
            case svc::ServeStatus::kRefused:
              ++tally.refused;
              break;
            case svc::ServeStatus::kStuck:
              ++tally.stuck;
              break;
            case svc::ServeStatus::kDroppedSource:
              ++tally.dropped_source;
              break;
            case svc::ServeStatus::kDroppedNode:
              ++tally.dropped_node;
              break;
            case svc::ServeStatus::kDroppedLink:
              ++tally.dropped_link;
              break;
          }
          if (res.stale()) {
            if (res.status == svc::ServeStatus::kDeliveredOptimal) {
              ++tally.stale_delivered;
            } else if (res.status == svc::ServeStatus::kDeliveredSuboptimal) {
              ++tally.stale_detour;
            } else if (res.dropped()) {
              ++tally.stale_dropped;
            }
          }
        }
      });
    }
    for (auto& t : pool) t.join();
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  stop_churn.store(true);
  writer.join();
  telemetry.tick();

  // Final consistency probe on the last published epoch.
  const svc::SnapshotPtr last = oracle.acquire();
  if (!snapshot_matches_scratch(cube, *last)) {
    consistent.store(false);
  }

  Tally total;
  obs::HistogramData latency(latency_bounds);
  for (unsigned r = 0; r < readers; ++r) {
    total.merge(tallies[r]);
    latency.merge(latencies[r]);
  }
  const std::uint64_t epochs = oracle.stats().epochs_published;
  const double wall_s = wall_ms / 1000.0;
  const double routes_per_sec =
      wall_s > 0.0 ? static_cast<double>(requests) / wall_s : 0.0;
  const double epochs_per_sec =
      wall_s > 0.0 ? static_cast<double>(epochs) / wall_s : 0.0;
  const std::uint64_t stale_total =
      total.stale_delivered + total.stale_detour + total.stale_dropped;
  const bool accounted = total.total() == requests;

  Table throughput("SERVICE: " + std::to_string(readers) + " readers vs 1 "
                       "churn writer, Q" + std::to_string(dim) + " (" +
                       std::to_string(requests) + " requests, epoch " +
                       std::to_string(last->epoch) + " final)",
                   {"metric", "value"});
  throughput.set_precision(1, 1);
  throughput.row() << "wall ms" << wall_ms;
  throughput.row() << "routes / sec" << routes_per_sec;
  throughput.row() << "epochs published" << static_cast<std::int64_t>(epochs);
  throughput.row() << "epochs / sec" << epochs_per_sec;
  bench::emit(throughput, opt);

  Table latency_table("SERVICE: serve latency (us)",
                      {"p50", "p90", "p99", "p999", "max"});
  for (unsigned c = 0; c < 5; ++c) latency_table.set_precision(c, 3);
  latency_table.row() << latency.quantile(0.5) << latency.quantile(0.9)
                      << latency.quantile(0.99) << latency.quantile(0.999)
                      << latency.max_seen;
  bench::emit(latency_table, opt);

  const auto cell = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };
  Table outcomes("SERVICE: outcomes and staleness",
                 {"outcome", "count", "of which stale"});
  outcomes.row() << "delivered optimal" << cell(total.optimal)
                 << cell(total.stale_delivered);
  outcomes.row() << "delivered H+2 detour" << cell(total.suboptimal)
                 << cell(total.stale_detour);
  outcomes.row() << "source refused" << cell(total.refused) << 0;
  outcomes.row() << "dropped (source dead)" << cell(total.dropped_source)
                 << cell(total.dropped_source);
  outcomes.row() << "dropped (node died)" << cell(total.dropped_node)
                 << cell(total.dropped_node);
  outcomes.row() << "dropped (link died)" << cell(total.dropped_link)
                 << cell(total.dropped_link);
  outcomes.row() << "stuck" << cell(total.stuck) << 0;
  outcomes.row() << "no healthy pair" << cell(total.no_pair) << 0;
  bench::emit(outcomes, opt);

  std::cout << "snapshot consistency: " << total.verifications
            << " in-flight verification(s) + final epoch vs run_egs — "
            << (consistent.load() ? "bit-identical" : "MISMATCH") << '\n'
            << "staleness: " << stale_total << " of " << requests
            << " routes decided on an epoch older than the one they ran "
               "against\n";

  if (!telemetry.finish(dim, readers)) return 2;

  if (!opt.bench_json.empty()) {
    std::ofstream out(opt.bench_json, std::ios::trunc);
    if (!out) {
      std::cerr << "cannot open " << opt.bench_json << " for writing\n";
      return 2;
    }
    // Exact-gated fields are the run parameters and self-consistency
    // flags; latencies/rates gate as warnings; stale_*/epochs_*/outcome_*
    // are interleaving-dependent and ignored (scripts/bench_gate.py).
    out << "{\n"
        << "  \"bench\": \"service\",\n"
        << "  \"dim\": " << dim << ",\n"
        << "  \"readers\": " << readers << ",\n"
        << "  \"requests\": " << requests << ",\n"
        << "  \"churn_pause_us_param\": " << svc_opt.churn_pause_us << ",\n"
        << "  \"wall_ms\": " << wall_ms << ",\n"
        << "  \"routes_per_sec\": " << routes_per_sec << ",\n"
        << "  \"p50_us\": " << latency.quantile(0.5) << ",\n"
        << "  \"p99_us\": " << latency.quantile(0.99) << ",\n"
        << "  \"p999_us\": " << latency.quantile(0.999) << ",\n"
        << "  \"epochs_published\": " << epochs << ",\n"
        << "  \"epochs_per_sec\": " << epochs_per_sec << ",\n"
        << "  \"outcome_delivered_optimal\": " << total.optimal << ",\n"
        << "  \"outcome_delivered_suboptimal\": " << total.suboptimal << ",\n"
        << "  \"outcome_refused\": " << total.refused << ",\n"
        << "  \"outcome_stuck\": " << total.stuck << ",\n"
        << "  \"outcome_dropped\": " << total.dropped() << ",\n"
        << "  \"outcome_no_pair\": " << total.no_pair << ",\n"
        << "  \"stale_total\": " << stale_total << ",\n"
        << "  \"stale_delivered\": " << total.stale_delivered << ",\n"
        << "  \"stale_detour\": " << total.stale_detour << ",\n"
        << "  \"stale_dropped\": " << total.stale_dropped << ",\n"
        << "  \"stale_verifications\": " << total.verifications << ",\n"
        << "  \"snapshots_consistent\": "
        << (consistent.load() ? "true" : "false") << ",\n"
        << "  \"outcomes_accounted\": " << (accounted ? "true" : "false")
        << ",\n"
        << "  \"stuck_free\": " << (total.stuck == 0 ? "true" : "false")
        << "\n"
        << "}\n";
  }

  int rc = bench::finish_audit(audit.get());
  if (!consistent.load()) {
    std::cerr << "FATAL: a snapshot diverged from its from-scratch table\n";
    rc = 1;
  }
  if (!accounted) {
    std::cerr << "FATAL: outcome counts do not sum to the request count\n";
    rc = 1;
  }
  if (total.stuck != 0) {
    // Within one immutable snapshot the table is a true fixed point, so
    // a mid-route dead end is impossible — staleness only ever drops.
    std::cerr << "FATAL: " << total.stuck << " route(s) stuck on an "
              << "immutable snapshot\n";
    rc = 1;
  }
  return rc;
}
