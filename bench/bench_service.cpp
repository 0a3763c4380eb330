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
// Reported: the outcome counts and the STALENESS split — of the routes
// that ran against a ground epoch newer than their decision epoch, how
// many were delivered anyway, delivered on the H+2 spare detour, or
// dropped in flight (every drop is stale by construction: ground ==
// decision cannot block a hop the decision tables allowed). The bench
// keeps no clock: perfbench's live-q10 workload measures serving speed.
//
// Self-checks: every `--verify-every` requests each reader bit-compares
// its current snapshot's two views against a from-scratch run_egs of the
// snapshot's own fault configuration (the RCU guarantee), the outcome
// counts must sum to the request count, and --audit streams every route
// through the invariant-checking AuditSink; a failed check exits 1. The
// live run writes no --bench-json record, because its outcome counts
// depend on thread interleaving. --sample's deterministic record is the
// one CI gates.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/egs.hpp"
#include "exp/sweep_engine.hpp"
#include "obs/sampling.hpp"
#include "svc/serve.hpp"
#include "svc/snapshot_oracle.hpp"
#include "workload/pair_sampler.hpp"
#include "workload/service_script.hpp"

namespace {

using namespace slcube;

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
    // Same rules as bench::Options: a missing or malformed value exits 2.
    const auto number = [&](auto& field) {
      const char* const flag = argv[i];
      if (i + 1 >= argc) {
        std::cerr << argv[0] << ": flag " << flag
                  << " is missing its value\n";
        std::exit(2);
      }
      if (!bench::parse_unsigned(argv[++i], field)) {
        std::cerr << argv[0] << ": flag " << flag
                  << " needs an unsigned integer that fits, not '" << argv[i]
                  << "'\n";
        std::exit(2);
      }
    };
    if (std::strcmp(argv[i], "--readers") == 0) {
      number(svc.readers);
    } else if (std::strcmp(argv[i], "--requests") == 0) {
      number(svc.requests);
    } else if (std::strcmp(argv[i], "--churn-pause-us") == 0) {
      number(svc.churn_pause_us);
    } else if (std::strcmp(argv[i], "--verify-every") == 0) {
      number(svc.verify_every);
    } else if (std::strcmp(argv[i], "--sample") == 0) {
      svc.sample = true;
    } else if (std::strcmp(argv[i], "--script-epochs") == 0) {
      number(svc.script_epochs);
    } else if (std::strcmp(argv[i], "--head-every") == 0) {
      number(svc.head_every);
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
//   A  untraced              -> the workload's ground-truth tallies;
//   B  sampled, null sink    -> the promoted-route digest; its tallies
//                               must equal A's;
//   C  sampled, other thread
//      count                 -> digest must be bit-identical (the
//                               thread-invariance gate);
//   D  sampled, AuditSink    -> every promoted chain re-checked against
//      (+ --jsonl tee)          the paper invariants, sampler counters
//                               reconciled, 100% anomaly retention
//                               verified; digest must match B.
//
// The sampler's cost is not measured here: these passes last tens of
// milliseconds at CI's size, too short to resolve it.
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

/// Run all requests through `body(r, i)` on `nthreads` threads
/// (contiguous static split, same as the live bench).
template <typename Body>
void run_scripted_pass(std::uint64_t requests, unsigned nthreads,
                       const Body& body) {
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

  // --- pass A: untraced, the workload's ground truth --------------------
  std::vector<SampleTally> untraced_tallies(readers);
  run_scripted_pass(requests, readers, [&](unsigned r, std::uint64_t i) {
    const auto req = script.request(i, requests);
    SampleTally& tally = untraced_tallies[r];
    if (!req.has_pair) {
      ++tally.no_pair;
      return;
    }
    const svc::ServeResult res = script.serve(req);
    const bool detour = res.status == svc::ServeStatus::kDeliveredSuboptimal;
    ++tally.served;
    if (res.dropped()) ++tally.dropped;
    if (detour) ++tally.detour;
    if (res.stale()) ++tally.stale;
    if (res.dropped() || detour || res.stale()) ++tally.anomalies;
  });

  // --- pass B: sampled (replay mode, null downstream) -> the digest ------
  obs::NullSink null_b;
  obs::SamplingSink sampler_b(&null_b, make_sampling_config(svc_opt, false));
  script.emit_epoch_events(sampler_b, requests);
  std::vector<SampleTally> sampled_tallies(readers);
  std::vector<ChainCollector> collectors_b(readers);
  run_scripted_pass(requests, readers, [&](unsigned r, std::uint64_t i) {
    serve_replay(script, i, requests, sampler_b, collectors_b[r],
                 sampled_tallies[r]);
  });
  const obs::SamplingSink::Stats stats = sampler_b.stats();
  const std::uint64_t digest = sampler_b.promoted_digest();

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
  const auto jsonl = opt.make_jsonl_sink();
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

  // The scripted workload and the unlimited budget make every field
  // exact for a commit.
  const bool written = bench::write_record(opt, [&](obs::JsonWriter& w) {
    w.field("bench", "sampling")
        .field("dim", dim)
        .field("readers", readers)
        .field("requests", requests)
        .field("script_epochs", svc_opt.script_epochs)
        .field("head_every", svc_opt.head_every)
        .field("sampling_promoted_digest", digest)
        .field("sampling_routes", stats.routes)
        .field("sampling_promoted", stats.promoted)
        .field("sampling_breadcrumb_only", stats.breadcrumb_only)
        .field("sampling_promoted_head",
               reason_count(obs::PromoteReason::kHead))
        .field("sampling_promoted_drop",
               reason_count(obs::PromoteReason::kDrop))
        .field("sampling_promoted_detour",
               reason_count(obs::PromoteReason::kDetour))
        .field("sampling_promoted_stale",
               reason_count(obs::PromoteReason::kStale))
        .field("sampling_shed_routes", stats.shed_routes)
        .field("sampling_overflow_routes", stats.overflow_routes)
        .field("sampling_retention_full", retention_full)
        .field("sampling_digest_thread_invariant",
               digest_invariant && digest_audited_same)
        .field("sampling_audit_clean", audit_clean)
        .field("sampling_passes_identical", passes_identical);
  });
  if (!written) return 2;

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
  // --sample always audits and writes the record; the live run takes
  // --audit and writes no record.
  const auto opt = bench::Options::parse(
      argc, argv,
      bench::kJsonl | bench::kDim | bench::kSeed |
          (svc_opt.sample ? bench::kBenchJson : bench::kAudit));
  const unsigned dim = opt.dim ? opt.dim : 10;
  const std::uint64_t seed = opt.seed ? opt.seed : 0x5E51CE;
  const unsigned readers = svc_opt.readers;
  const std::uint64_t requests = svc_opt.requests;

  if (svc_opt.sample) return run_sample_mode(svc_opt, opt, dim, seed);

  const topo::Hypercube cube(dim);
  svc::SnapshotOracle oracle(cube);

  const auto audit = opt.make_audit_sink(dim);
  // JsonlSink locks each line, so reader threads may share the file.
  // Lanes still interleave in the output — replaying a multi-reader file
  // through the single-lane JSONL auditor will report broken chains; use
  // --jsonl with --readers 1 for replays.
  const auto jsonl = opt.make_jsonl_sink();
  std::vector<obs::TraceSink*> fanout;
  if (audit != nullptr) fanout.push_back(audit.get());
  if (jsonl != nullptr) fanout.push_back(jsonl.get());
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
      if (svc_opt.churn_pause_us > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(svc_opt.churn_pause_us));
      }
    }
  });

  // --- router workers ---------------------------------------------------
  std::vector<Tally> tallies(readers);
  {
    std::vector<std::thread> pool;
    pool.reserve(readers);
    for (unsigned r = 0; r < readers; ++r) {
      const std::uint64_t share =
          requests / readers + (r < requests % readers ? 1 : 0);
      pool.emplace_back([&, r, share] {
        Xoshiro256ss rng = exp::substream(seed, /*stream=*/1 + r, 0);
        Tally& tally = tallies[r];
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
          const svc::ServeResult res =
              svc::serve_route(oracle, snap, pair->s, pair->d, serve_opt);
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
  stop_churn.store(true);
  writer.join();

  // Final consistency probe on the last published epoch.
  const svc::SnapshotPtr last = oracle.acquire();
  if (!snapshot_matches_scratch(cube, *last)) {
    consistent.store(false);
  }

  Tally total;
  for (const Tally& t : tallies) total.merge(t);
  const std::uint64_t stale_total =
      total.stale_delivered + total.stale_detour + total.stale_dropped;
  const bool accounted = total.total() == requests;

  const auto cell = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };
  Table outcomes("SERVICE: outcomes and staleness, " +
                     std::to_string(readers) + " readers vs 1 churn writer, Q" +
                     std::to_string(dim) + " (" + std::to_string(requests) +
                     " requests, epoch " + std::to_string(last->epoch) +
                     " final)",
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
