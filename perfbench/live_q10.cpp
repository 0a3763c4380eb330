// live-q10: two closed-loop readers against one open-loop writer.
//
// Q10 with ~2% node faults and ~2n faulty links. The readers serve
// uniform pairs with live serve_route, which re-acquires the snapshot
// before every hop; the writer (this process's main thread) applies the
// seeded churn script at 1,000 events/s on absolute deadlines, and each
// writer call is timed from the moment it was due. The tables are tiny,
// so what dominates is the one shared snapshot pointer every reader
// acquires about H+2 times per route: the only workload with contention
// between threads and with stale routes.
#include <atomic>
#include <fstream>
#include <memory>
#include <thread>

#include "core/egs.hpp"
#include "exp/sweep_engine.hpp"
#include "harness.hpp"
#include "workload/pair_sampler.hpp"

namespace perfbench {

namespace {

constexpr unsigned kReaders = 2;
constexpr std::int64_t kEventPeriodNs = 1'000'000;  // 1,000 events/s
constexpr std::size_t kSliceRoutes = 256;
constexpr std::uint64_t kVerifyEvery = 8192;

struct alignas(64) Reader {
  SliceMeter meter;
  SliceMeter traced_meter{0, 0};
  std::uint64_t routes = 0;
  std::vector<svc::SnapshotPtr> held;  ///< verified against run_egs later
  std::uint64_t delivered = 0;
  std::uint64_t refused = 0;
  std::uint64_t dropped = 0;
  std::uint64_t stuck = 0;
  std::uint64_t stale = 0;
  std::uint64_t invalid = 0;
  std::uint64_t traced_routes = 0;
  std::uint64_t acquires = 0;
  std::uint64_t reads = 0;
  std::uint64_t hops = 0;
  std::unique_ptr<ThreadTrace> trace;
};

void read_loop(const svc::SnapshotOracle& oracle, const std::atomic<bool>& stop,
               bool tracing, std::uint64_t seed, unsigned index, Reader& rd) {
  const topo::Hypercube& cube = oracle.cube();
  Xoshiro256ss rng = exp::substream(seed, 4000 + index, 0);
  for (std::uint64_t slice = 0; !stop.load(std::memory_order_relaxed);
       ++slice) {
    const bool traced = tracing && slice % 2 == 1;
    const bool moved = slice % kSlicesPerMove == 0;
    ThreadTrace* const tr = traced ? rd.trace.get() : nullptr;
    SliceMeter& m = traced ? rd.traced_meter : rd.meter;
    if (moved) {
      move_to_cpu(rotation_cpu(slice / kSlicesPerMove, index));
      rd.meter.next_group();
    }
    m.begin();
    for (std::size_t i = 0; i < kSliceRoutes; ++i, ++rd.routes) {
      svc::ServeResult r;
      workload::Pair pair;
      if (traced) {
        tr->next_request();
        const Span req(tr, kRequest);
        svc::SnapshotPtr snap;
        {
          const Span span(tr, kAcquire);
          snap = oracle.acquire();
        }
        {
          const Span span(tr, kPair);
          pair = *workload::sample_uniform_pair(snap->faults, rng);
        }
        {
          const Span span(tr, kDecide);
          (void)core::decide_at_source_egs(cube, snap->links, snap->views(),
                                           pair.s, pair.d);
        }
        {
          const Span span(tr, kServe);
          r = svc::serve_route(oracle, snap, pair.s, pair.d);
        }
        ++rd.traced_routes;
        rd.acquires += live_acquires(r);
        rd.reads += level_reads(cube, r, pair.d);
        rd.hops += r.hops();
      } else if (i % kSampleEvery == 0) {
        const std::int64_t t0 = now_ns();
        svc::SnapshotPtr snap = oracle.acquire();
        const std::int64_t t1 = now_ns();
        pair = *workload::sample_uniform_pair(snap->faults, rng);
        const std::int64_t t2 = now_ns();
        r = svc::serve_route(oracle, snap, pair.s, pair.d);
        m.route_sample(static_cast<double>(t1 - t0 + now_ns() - t2));
        if (rd.routes % kVerifyEvery == 0) rd.held.push_back(std::move(snap));
      } else {
        const svc::SnapshotPtr snap = oracle.acquire();
        pair = *workload::sample_uniform_pair(snap->faults, rng);
        r = svc::serve_route(oracle, snap, pair.s, pair.d);
      }
      if (!outcome_plausible(r, pair.s, pair.d)) ++rd.invalid;
      if (r.delivered()) {
        ++rd.delivered;
      } else if (r.dropped()) {
        ++rd.dropped;
      } else if (r.status == svc::ServeStatus::kStuck) {
        ++rd.stuck;
      } else {
        ++rd.refused;
      }
      if (r.stale()) ++rd.stale;
    }
    if (moved) {
      m.drop();
    } else {
      m.end(kSliceRoutes);
    }
  }
}

}  // namespace

Result run_live_q10(const Args& args) {
  Result result;
  const topo::Hypercube cube(10);
  const std::uint64_t node_target = cube.num_nodes() / 50;
  const std::size_t link_target = 2 * cube.dimension();
  const fault::FaultSet faults =
      make_node_faults(cube, node_target, args.seed);
  const fault::LinkFaultSet links =
      make_link_faults(cube, faults, link_target, args.seed);

  ThreadTrace setup_trace(0);
  ThreadTrace writer_trace(1);
  ThreadTrace* const setup_tr = args.trace ? &setup_trace : nullptr;
  ThreadTrace* const writer_tr = args.trace ? &writer_trace : nullptr;

  std::unique_ptr<svc::SnapshotOracle> oracle;
  const double setup = time_setup(
      [&] { oracle.reset(); },
      [&] {
        const Span span(setup_tr, kConstruct);
        oracle = std::make_unique<svc::SnapshotOracle>(cube, faults, links);
      },
      3000, setup_tr, result);
  ChurnScript script(cube, faults, links, node_target, link_target, args.seed);

  std::array<Reader, kReaders> readers;
  for (unsigned r = 0; r < kReaders; ++r) {
    readers[r].trace = std::make_unique<ThreadTrace>(2 + r);
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> pool;
  for (unsigned r = 0; r < kReaders; ++r) {
    pool.emplace_back(read_loop, std::cref(*oracle), std::cref(stop),
                      args.trace, args.seed, r, std::ref(readers[r]));
  }

  // --- the writer: open loop on absolute deadlines ----------------------
  // Each call is timed from the moment it was due, so a stall shows up in
  // the calls queued behind it; how late the writer woke is reported too.
  std::vector<double> churn_ns;
  std::vector<double> late_ns;
  const std::int64_t t_start = now_ns();
  const std::int64_t deadline =
      t_start + static_cast<std::int64_t>(args.seconds * 1e9);
  std::int64_t last_done = t_start;
  for (std::int64_t due = t_start + kEventPeriodNs; due < deadline;
       due += kEventPeriodNs) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    late_ns.push_back(static_cast<double>(now_ns() - due));
    const ChurnEvent& ev = script.next();
    {
      writer_trace.next_request();
      const Span span(writer_tr, kWriter);
      apply_event(*oracle, ev);
    }
    last_done = now_ns();
    churn_ns.push_back(static_cast<double>(last_done - due));
  }
  const std::uint64_t events = churn_ns.size();
  const double churn_per_s =
      static_cast<double>(events) /
      (static_cast<double>(last_done - t_start) / 1e9);
  stop.store(true);
  for (auto& t : pool) t.join();

  // --- checks: held snapshots, outcome accounting -----------------------
  struct {
    std::uint64_t routes = 0, delivered = 0, dropped = 0, stuck = 0, stale = 0,
                  invalid = 0, traced_routes = 0, acquires = 0, reads = 0,
                  hops = 0;
  } total;
  ThreadTrace trace(9);
  std::uint64_t verified = 0;
  std::uint64_t diverged = 0;
  for (Reader& rd : readers) {
    for (const svc::SnapshotPtr& snap : rd.held) {
      ++verified;
      if (!matches_scratch(*snap)) ++diverged;
    }
    const std::uint64_t routes = rd.routes;
    result.expect(rd.delivered + rd.refused + rd.dropped + rd.stuck == routes,
                  "reader outcomes do not sum to its routes");
    total.routes += routes;
    total.delivered += rd.delivered;
    total.dropped += rd.dropped;
    total.stuck += rd.stuck;
    total.stale += rd.stale;
    total.invalid += rd.invalid;
    total.traced_routes += rd.traced_routes;
    total.acquires += rd.acquires;
    total.reads += rd.reads;
    total.hops += rd.hops;
    trace.merge(*rd.trace);
  }
  ++verified;
  if (!matches_scratch(*oracle->acquire())) ++diverged;
  result.expect(diverged == 0, std::to_string(diverged) + " of " +
                                   std::to_string(verified) +
                                   " held snapshot(s) differ from run_egs");
  result.expect(total.stuck == 0,
                std::to_string(total.stuck) + " route(s) stuck");
  result.expect(total.invalid == 0,
                std::to_string(total.invalid) +
                    " route(s) off H/H+2 or dropped while not stale");
  const std::uint64_t routes = total.routes;
  result.failed += total.invalid;  // stuck routes are among them
  result.attempted += routes + events;

  const auto frac = [&](std::uint64_t k) {
    return static_cast<double>(k) / static_cast<double>(routes);
  };
  const SliceSummary sum = report_routes({&readers[0].meter, &readers[1].meter}, result);
  result.metric("delivered_frac", frac(total.delivered), "ratio");
  result.metric("setup_s", setup, "s");
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  result.metric("svc.churn_per_s", churn_per_s, "1/s");
  result.metric("svc.churn_p50_us", quantile(churn_ns, 0.5) / 1e3, "us");
  result.metric("svc.churn_p99_us", quantile(churn_ns, 0.99) / 1e3, "us");
  result.metric("svc.stale_frac", frac(total.stale), "ratio");
  result.metric("svc.drop_frac", frac(total.dropped), "ratio");
  result.metric("workload.writer_late_us", median(late_ns) / 1e3, "us");
  if (args.trace) {
    const auto per_traced = [&](std::uint64_t k) {
      return static_cast<double>(k) / static_cast<double>(total.traced_routes);
    };
    const double decide = trace.mean_ns(kDecide);
    const double serve = trace.mean_ns(kServe);
    const double acquire = trace.mean_ns(kAcquire);
    const double acquires_per_route = per_traced(total.acquires);
    result.metric("core.decide_ns", decide, "ns");
    result.metric("core.walk_ns",
                  serve - decide - acquire * (acquires_per_route - 1.0), "ns");
    result.metric("core.level_reads_per_route", per_traced(total.reads),
                  "count");
    result.metric("core.hops_per_route", per_traced(total.hops), "count");
    result.metric("svc.acquire_ns", acquire, "ns");
    result.metric("svc.acquires_per_route", acquires_per_route, "count");
    result.metric("svc.serve_ns", serve, "ns");
    result.metric("workload.pair_ns", trace.mean_ns(kPair), "ns");
    result.metric(
        "trace.overhead_frac",
        1.0 - SliceSummary::of({&readers[0].traced_meter,
                                &readers[1].traced_meter})
                      .routes_per_s /
                  sum.routes_per_s,
        "ratio");
    report_self_time(trace, result);
  }
  result.notes.push_back(
      "writer events: " +
      std::to_string(events) + ", writer late p99 " +
      std::to_string(quantile(late_ns, 0.99) / 1e3) + " us, held snapshots "
      "verified: " + std::to_string(verified));
  if (args.trace && !args.spans_out.empty()) {
    std::ofstream out(args.spans_out);
    setup_trace.write(out);
    writer_trace.write(out);
    for (const Reader& rd : readers) rd.trace->write(out);
  }
  return result;
}

}  // namespace perfbench
