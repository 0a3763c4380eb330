// sampled-q14: the scripted serving workload with tail-sampled tracing.
//
// workload::ServiceScript at Q14 (64 pre-published epochs; about 1% of
// requests run against a ground epoch newer than their decision epoch,
// which exercises serve's drop and detour paths). Two threads serve each
// pass of requests and offer every route to obs::SamplingSink in replay
// mode, with an unlimited budget and a null downstream: the
// BENCH_SAMPLING configuration, whose promoted digest is fixed. Without
// this workload the obs layer would go unmeasured.
#include <fstream>
#include <memory>
#include <thread>

#include "core/egs.hpp"
#include "exp/sweep_engine.hpp"
#include "harness.hpp"
#include "obs/sampling.hpp"
#include "workload/service_script.hpp"

namespace perfbench {

namespace {

constexpr unsigned kThreads = 2;
constexpr std::uint64_t kPassRequests = 1u << 17;
constexpr std::uint64_t kSliceRoutes = 512;

class NullSink final : public obs::TraceSink {
 public:
  void on_event(const obs::TraceEvent&) override {}
};

class ChainCollector final : public obs::TraceSink {
 public:
  std::vector<obs::TraceEvent> events;
  void on_event(const obs::TraceEvent& ev) override { events.push_back(ev); }
};

/// One serving thread's share of a pass.
struct Worker {
  SliceMeter meter;
  SliceMeter traced_meter{0, 0};
  ThreadTrace trace;
  ChainCollector collector;
  std::uint64_t route_digest = 0;
  std::uint64_t path_digest = 0;  ///< check pass only
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t stale = 0;
  std::uint64_t anomalies = 0;  ///< dropped, detoured or stale
  std::uint64_t invalid = 0;
  std::uint64_t reads = 0;
  std::uint64_t hops = 0;
  std::size_t cpu = 0;  ///< where the next timed pass runs
  explicit Worker(unsigned index) : trace(1 + index) {}
  void reset_counts() {
    route_digest = path_digest = delivered = dropped = stale = anomalies = invalid = reads =
        hops = 0;
  }
};

/// Serve one drawn request, offer it, and, when the sampler promotes the
/// route, re-serve it traced to regenerate its chain for replay_chain.
svc::ServeResult serve_one(const workload::ServiceScript& script,
                           obs::SamplingSink& sampler,
                           const workload::ServiceScript::Request& req,
                           ThreadTrace* tr, Worker& w) {
  if (tr != nullptr) {
    const svc::Snapshot& decision = *script.snapshot(req.decision_epoch);
    const Span span(tr, kDecide);
    (void)core::decide_at_source_egs(script.cube(), decision.links,
                                     decision.views(), req.s, req.d);
  }
  svc::ServeResult res;
  {
    const Span span(tr, kServe);
    res = script.serve(req);
  }
  const obs::RouteSummary summary =
      workload::ServiceScript::summarize(req, res);
  obs::SamplingSink::Offer offer;
  {
    const Span span(tr, kOffer);
    offer = sampler.offer(summary);
  }
  if (offer.promoted) {
    w.collector.events.clear();
    svc::ServeOptions traced_serve;
    traced_serve.trace = &w.collector;
    {
      const Span span(tr, kReserve);
      (void)script.serve(req, traced_serve);  // same chain, regenerated
    }
    const Span span(tr, kReplay);
    sampler.replay_chain(summary, offer.reason, w.collector.events);
  }
  return res;
}

/// Serve requests [begin, end) in slices. Untimed (the check pass), every
/// outcome is validated in full and counted; timed, only the O(1) checks.
void serve_range(const workload::ServiceScript& script,
                 obs::SamplingSink& sampler, std::uint64_t begin,
                 std::uint64_t end, bool timed, bool traced, Worker& w) {
  const topo::Hypercube& cube = script.cube();
  ThreadTrace* const tr = traced ? &w.trace : nullptr;
  SliceMeter& m = traced ? w.traced_meter : w.meter;
  if (timed) {
    move_to_cpu(w.cpu);
    w.meter.next_group();
  }
  for (std::uint64_t lo = begin; lo < end; lo += kSliceRoutes) {
    const std::uint64_t hi = std::min(end, lo + kSliceRoutes);
    if (timed) m.begin();
    for (std::uint64_t i = lo; i < hi; ++i) {
      workload::ServiceScript::Request req;
      svc::ServeResult res;
      if (traced) {
        w.trace.next_request();
        const Span root(tr, kRequest);
        {
          const Span span(tr, kPair);
          req = script.request(i, kPassRequests);
        }
        res = serve_one(script, sampler, req, tr, w);
      } else if (timed && i % kSampleEvery == 0) {
        req = script.request(i, kPassRequests);
        const std::int64_t t0 = now_ns();
        res = serve_one(script, sampler, req, nullptr, w);
        m.route_sample(static_cast<double>(now_ns() - t0));
      } else {
        req = script.request(i, kPassRequests);
        res = serve_one(script, sampler, req, nullptr, w);
      }
      w.route_digest ^=
          route_mix(i, static_cast<unsigned>(res.status), res.hops());
      if (res.delivered()) ++w.delivered;
      if (res.dropped()) ++w.dropped;
      if (res.stale()) ++w.stale;
      if (res.dropped() || res.stale() ||
          res.status == svc::ServeStatus::kDeliveredSuboptimal) {
        ++w.anomalies;
      }
      if (!timed) {
        if (!outcome_valid(cube, res, req.s, req.d)) ++w.invalid;
        w.path_digest ^= path_mix(i, res);
        w.reads += level_reads(cube, res, req.d);
        w.hops += res.hops();
      } else if (!outcome_plausible(res, req.s, req.d)) {
        ++w.invalid;
      }
    }
    if (timed && lo == begin) {
      m.drop();  // the thread just moved: cold caches
    } else if (timed) {
      m.end(hi - lo);
    }
  }
}

struct Pass {
  std::uint64_t promoted_digest = 0;
  obs::SamplingSink::Stats stats;
};

/// Serve all requests once on `threads` threads (contiguous split) through
/// a fresh sampler: its promoted digest is an xor fold, so a sampler must
/// never see a route twice.
Pass run_pass(const workload::ServiceScript& script, unsigned threads,
              bool timed, bool traced, std::vector<Worker>& workers) {
  NullSink null;
  obs::SamplingConfig cfg;
  cfg.head_every = 1024;
  cfg.budget.unlimited = true;
  obs::SamplingSink sampler(&null, cfg);
  script.emit_epoch_events(sampler, kPassRequests);
  for (Worker& w : workers) w.reset_counts();

  std::vector<std::thread> pool;
  std::uint64_t begin = 0;
  for (unsigned r = 0; r < threads; ++r) {
    const std::uint64_t end = begin + kPassRequests / threads +
                              (r < kPassRequests % threads ? 1 : 0);
    pool.emplace_back(serve_range, std::cref(script), std::ref(sampler),
                      begin, end, timed, traced, std::ref(workers[r]));
    begin = end;
  }
  for (auto& t : pool) t.join();
  Pass p;
  p.promoted_digest = sampler.promoted_digest();
  p.stats = sampler.stats();
  return p;
}

std::uint64_t promoted_anomalies(const obs::SamplingSink::Stats& s) {
  const auto by = [&](obs::PromoteReason r) {
    return s.promoted_by_reason[static_cast<std::size_t>(r)];
  };
  return by(obs::PromoteReason::kDrop) + by(obs::PromoteReason::kDetour) +
         by(obs::PromoteReason::kStale) + by(obs::PromoteReason::kMisroute);
}

}  // namespace

Result run_sampled_q14(const Args& args) {
  Result result;
  workload::ServiceScriptConfig cfg;
  cfg.dim = 14;
  cfg.seed = args.seed;
  cfg.epochs = 64;

  ThreadTrace setup_trace(0);
  ThreadTrace* const setup_tr = args.trace ? &setup_trace : nullptr;
  std::unique_ptr<workload::ServiceScript> script;
  const double setup = time_setup(
      [&] { script.reset(); },
      [&] {
        const Span span(setup_tr, kConstruct);
        script = std::make_unique<workload::ServiceScript>(cfg);
      },
      1500, setup_tr, result);

  std::vector<Worker> workers;
  workers.reserve(kThreads);
  for (unsigned r = 0; r < kThreads; ++r) workers.emplace_back(r);

  // --- check pass: untimed, one thread; the timed passes run on two and
  // must reproduce its promoted and route digests (thread invariance).
  const Pass check = run_pass(*script, 1, false, false, workers);
  const Worker cw = workers[0];  // a copy: the timed passes reset workers
  result.expect(cw.invalid == 0,
                std::to_string(cw.invalid) + " invalid check-pass route(s)");
  result.expect(promoted_anomalies(check.stats) == cw.anomalies &&
                    check.stats.shed_routes == 0 &&
                    check.stats.overflow_routes == 0,
                "sampler did not retain every anomalous route");
  result.check("promoted_digest", check.promoted_digest);
  result.check("promoted", check.stats.promoted);
  result.check("route_digest", cw.route_digest);
  result.check("path_digest", cw.path_digest);
  result.check("level_reads", cw.reads);
  result.check("hops", cw.hops);
  result.check("delivered", cw.delivered);
  const double routes_d = static_cast<double>(kPassRequests);
  result.metric("core.level_reads_per_route",
                static_cast<double>(cw.reads) / routes_d, "count");
  result.metric("core.hops_per_route", static_cast<double>(cw.hops) / routes_d,
                "count");
  result.metric("svc.stale_frac", static_cast<double>(cw.stale) / routes_d,
                "ratio");
  result.metric("svc.drop_frac", static_cast<double>(cw.dropped) / routes_d,
                "ratio");
  result.metric("obs.promoted_per_1k",
                1000.0 * static_cast<double>(check.stats.promoted) / routes_d,
                "count");
  result.failed += cw.invalid;
  result.attempted += kPassRequests;

  // --- timed passes ------------------------------------------------------
  std::uint64_t delivered = 0;
  std::uint64_t routes = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t invalid = 0;
  std::uint64_t breadcrumbs_dropped = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  for (std::uint64_t pass = 0; now_ns() < deadline; ++pass) {
    const bool traced = args.trace && pass % 2 == 1;
    for (unsigned t = 0; t < kThreads; ++t) {
      workers[t].cpu = rotation_cpu(pass, t);
    }
    const Pass p = run_pass(*script, kThreads, true, traced, workers);
    std::uint64_t digest = 0;
    for (const Worker& w : workers) {
      digest ^= w.route_digest;
      delivered += w.delivered;
      invalid += w.invalid;
    }
    if (digest != cw.route_digest ||
        p.promoted_digest != check.promoted_digest) {
      ++mismatched;
    }
    breadcrumbs_dropped = p.stats.breadcrumbs_dropped;
    routes += kPassRequests;
  }
  result.expect(mismatched == 0,
                std::to_string(mismatched) +
                    " timed pass(es) disagree with the check pass's digests");
  result.expect(invalid == 0,
                std::to_string(invalid) + " implausible timed route(s)");
  result.failed += invalid;
  result.attempted += routes;

  const SliceSummary sum = report_routes({&workers[0].meter, &workers[1].meter}, result);
  result.metric("delivered_frac",
                static_cast<double>(delivered) / static_cast<double>(routes),
                "ratio");
  result.metric("setup_s", setup, "s");
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  result.metric("obs.breadcrumbs_dropped",
                static_cast<double>(breadcrumbs_dropped), "count");
  if (args.trace) {
    ThreadTrace trace(9);
    for (const Worker& w : workers) trace.merge(w.trace);
    const double decide = trace.mean_ns(kDecide);
    const double serve = trace.mean_ns(kServe);
    result.metric("core.decide_ns", decide, "ns");
    result.metric("core.walk_ns", serve - decide, "ns");
    result.metric("svc.serve_ns", serve, "ns");
    result.metric("obs.offer_ns", trace.mean_ns(kOffer), "ns");
    result.metric("obs.replay_ns", trace.mean_ns(kReplay), "ns");
    result.metric("workload.pair_ns", trace.mean_ns(kPair), "ns");
    result.metric("trace.overhead_frac",
                  1.0 - SliceSummary::of({&workers[0].traced_meter,
                                          &workers[1].traced_meter})
                                .routes_per_s /
                            sum.routes_per_s,
                  "ratio");
    report_self_time(trace, result);
  }
  if (args.trace && !args.spans_out.empty()) {
    std::ofstream out(args.spans_out);
    setup_trace.write(out);
    for (const Worker& w : workers) w.trace.write(out);
  }
  return result;
}

}  // namespace perfbench
