// churn-q16: one thread alternates writer calls and live routes.
//
// Q16 with node faults held near 2% and links near 2n by a seeded churn
// script (every eighth event a batch through apply()). After each event
// the same thread serves a fixed block of routes with live
// serve_route(oracle, oracle.acquire(), s, d). With one thread the ground
// epoch always equals the decision epoch, so outcomes are deterministic.
// Writes beside reads on the svc layer: every epoch runs the EgsOracle
// cascade and copies the whole snapshot (~2.5 bytes/node).
#include <fstream>
#include <memory>

#include "core/egs.hpp"
#include "core/packed_levels.hpp"
#include "exp/sweep_engine.hpp"
#include "harness.hpp"
#include "workload/pair_sampler.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kRoutesPerEvent = 64;
constexpr std::size_t kPrefixEvents = 256;

bool same_views(const svc::Snapshot& snap, const core::EgsOracle& mirror) {
  return snap.public_view == mirror.public_view() &&
         snap.self_view == mirror.self_view();
}

}  // namespace

Result run_churn_q16(const Args& args) {
  Result result;
  const topo::Hypercube cube(16);
  const std::uint64_t node_target = cube.num_nodes() / 50;
  const std::size_t link_target = 2 * cube.dimension();
  const fault::FaultSet faults =
      make_node_faults(cube, node_target, args.seed);
  const fault::LinkFaultSet links =
      make_link_faults(cube, faults, link_target, args.seed);

  ThreadTrace setup_trace(0);
  ThreadTrace trace(1);
  ThreadTrace* const setup_tr = args.trace ? &setup_trace : nullptr;

  std::unique_ptr<svc::SnapshotOracle> oracle;
  const double setup = time_setup(
      [&] { oracle.reset(); },
      [&] {
        const Span span(setup_tr, kConstruct);
        oracle = std::make_unique<svc::SnapshotOracle>(cube, faults, links);
      },
      20, setup_tr, result);
  // The mirror applies every event a second time, through core alone: it
  // checks each published epoch and, in the traced pass, times the cascade
  // without the publish.
  core::EgsOracle mirror(cube, faults, links);
  ChurnScript script(cube, faults, links, node_target, link_target, args.seed);
  Xoshiro256ss rng = exp::substream(args.seed, 4000, 0);

  // --- check prefix: untimed, every epoch against the mirror ------------
  std::uint64_t digest = 0;
  std::uint64_t path_digest = 0;
  std::uint64_t reads = 0;
  std::uint64_t hops = 0;
  std::uint64_t acquires = 0;
  std::uint64_t delivered = 0;
  std::uint64_t cascade_nodes = 0;
  std::uint64_t publish_bytes = 0;
  std::uint64_t bad_epochs = 0;
  std::uint64_t bad_routes = 0;
  std::uint64_t route_index = 0;
  for (std::size_t e = 0; e < kPrefixEvents; ++e) {
    const ChurnEvent& ev = script.next();
    const std::uint64_t before =
        oracle->writer_oracle().pseudo_stats().recomputes;
    apply_event(*oracle, ev);
    cascade_nodes += oracle->writer_oracle().pseudo_stats().recomputes - before;
    apply_event(mirror, ev);
    const svc::SnapshotPtr published = oracle->acquire();
    publish_bytes += snapshot_bytes(*published);
    if (!same_views(*published, mirror)) ++bad_epochs;
    for (std::size_t i = 0; i < kRoutesPerEvent; ++i, ++route_index) {
      const svc::SnapshotPtr snap = oracle->acquire();
      const auto pair = workload::sample_uniform_pair(snap->faults, rng);
      const svc::ServeResult r =
          svc::serve_route(*oracle, snap, pair->s, pair->d);
      if (!outcome_valid(cube, r, pair->s, pair->d) || r.dropped()) {
        ++bad_routes;
      }
      digest ^= route_mix(route_index, static_cast<unsigned>(r.status),
                          r.hops());
      path_digest ^= path_mix(route_index, r);
      reads += level_reads(cube, r, pair->d);
      hops += r.hops();
      acquires += live_acquires(r);
      if (r.delivered()) ++delivered;
    }
  }
  const std::uint64_t prefix_routes = kPrefixEvents * kRoutesPerEvent;
  result.expect(bad_epochs == 0, std::to_string(bad_epochs) +
                                     " published epoch(s) differ from the "
                                     "mirrored EgsOracle");
  result.expect(matches_scratch(*oracle->acquire()),
                "prefix's last epoch differs from run_egs");
  result.expect(bad_routes == 0,
                std::to_string(bad_routes) + " invalid prefix route(s)");
  result.check("route_digest", digest);
  result.check("path_digest", path_digest);
  result.check("table_digest",
               core::packed_digest(oracle->acquire()->public_view.packed()) ^
                   exp::mix64(core::packed_digest(
                       oracle->acquire()->self_view.packed())));
  result.check("level_reads", reads);
  result.check("hops", hops);
  result.check("acquires", acquires);
  result.check("delivered", delivered);
  result.check("cascade_nodes", cascade_nodes);
  result.check("publish_bytes", publish_bytes);
  result.failed += bad_routes;
  result.attempted += prefix_routes + kPrefixEvents;

  // --- timed phase -------------------------------------------------------
  // A slice is one event and its block of routes. In the traced pass odd
  // slices run with spans and feed their event to the mirror as it
  // happens; events of untraced slices queue for the mirror and are
  // replayed, untimed, before the next traced slice.
  SliceMeter meter;
  SliceMeter traced_meter{0, 0};  // spans, not samples, in traced slices
  std::vector<double> cascade_ns;
  std::vector<double> publish_ns;
  std::vector<ChurnEvent> pending;
  std::uint64_t routes = 0;
  std::uint64_t events = 0;
  std::uint64_t routes_delivered = 0;
  std::uint64_t invalid = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  for (std::uint64_t slice = 0; now_ns() < deadline; ++slice) {
    const bool traced = args.trace && slice % 2 == 1;
    if (traced) {
      for (const ChurnEvent& ev : pending) apply_event(mirror, ev);
      pending.clear();
    }
    const ChurnEvent& ev = script.next();
    const bool moved = slice % kSlicesPerMove == 0;
    SliceMeter& m = traced ? traced_meter : meter;
    if (moved) {
      move_to_cpu(slice / kSlicesPerMove);
      meter.next_group();
    }
    m.begin();
    if (traced) {
      trace.next_request();
      const Span root(&trace, kEvent);
      const std::int64_t t0 = now_ns();
      {
        const Span span(&trace, kWriter);
        apply_event(*oracle, ev);
      }
      const std::int64_t t1 = now_ns();
      {
        const Span span(&trace, kCascade);
        apply_event(mirror, ev);
      }
      // Per event: the mirror's call is the cascade alone; the writer call
      // minus it is the publish.
      const double cascade = static_cast<double>(now_ns() - t1);
      cascade_ns.push_back(cascade);
      publish_ns.push_back(static_cast<double>(t1 - t0) - cascade);
    } else {
      const std::int64_t t0 = now_ns();
      apply_event(*oracle, ev);
      m.event_sample(static_cast<double>(now_ns() - t0));
      if (args.trace) pending.push_back(ev);
    }
    for (std::size_t i = 0; i < kRoutesPerEvent; ++i) {
      svc::ServeResult r;
      workload::Pair pair;
      if (traced) {
        trace.next_request();
        const Span req(&trace, kRequest);
        svc::SnapshotPtr snap;
        {
          const Span span(&trace, kAcquire);
          snap = oracle->acquire();
        }
        {
          const Span span(&trace, kPair);
          pair = *workload::sample_uniform_pair(snap->faults, rng);
        }
        {
          const Span span(&trace, kDecide);
          (void)core::decide_at_source_egs(cube, snap->links, snap->views(),
                                           pair.s, pair.d);
        }
        const Span span(&trace, kServe);
        r = svc::serve_route(*oracle, snap, pair.s, pair.d);
      } else {  // routes here are few per slice: every one is timed
        const std::int64_t t0 = now_ns();
        const svc::SnapshotPtr snap = oracle->acquire();
        const std::int64_t t1 = now_ns();
        pair = *workload::sample_uniform_pair(snap->faults, rng);
        const std::int64_t t2 = now_ns();
        r = svc::serve_route(*oracle, snap, pair.s, pair.d);
        m.route_sample(static_cast<double>(t1 - t0 + now_ns() - t2));
      }
      if (r.delivered()) ++routes_delivered;
      if (!outcome_plausible(r, pair.s, pair.d)) ++invalid;
    }
    if (moved) {
      m.drop();
    } else {
      m.end(kRoutesPerEvent, 1);
    }
    routes += kRoutesPerEvent;
    ++events;
  }
  result.expect(matches_scratch(*oracle->acquire()),
                "final epoch differs from run_egs");
  if (args.trace) {
    for (const ChurnEvent& ev : pending) apply_event(mirror, ev);
    result.expect(same_views(*oracle->acquire(), mirror),
                  "final epoch differs from the mirrored EgsOracle");
  }
  result.expect(invalid == 0, std::to_string(invalid) +
                                  " implausible timed route(s)");
  result.failed += invalid;
  result.attempted += routes + events;

  const SliceSummary sum = report_routes({&meter}, result);
  const double acquires_per_route =
      static_cast<double>(acquires) / static_cast<double>(prefix_routes);
  result.metric("delivered_frac",
                static_cast<double>(routes_delivered) /
                    static_cast<double>(routes),
                "ratio");
  result.metric("setup_s", setup, "s");
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  result.metric("svc.churn_per_s", sum.events_per_s, "1/s");
  result.metric("svc.churn_p50_us", sum.event_p50_us, "us");
  result.metric("svc.churn_p99_us", sum.event_p99_us, "us");
  result.metric("core.level_reads_per_route",
                static_cast<double>(reads) / static_cast<double>(prefix_routes),
                "count");
  result.metric("core.hops_per_route",
                static_cast<double>(hops) / static_cast<double>(prefix_routes),
                "count");
  result.metric("core.cascade_nodes_per_event",
                static_cast<double>(cascade_nodes) / kPrefixEvents, "count");
  result.metric("svc.publish_bytes",
                static_cast<double>(publish_bytes) / kPrefixEvents, "bytes");
  result.metric("svc.acquires_per_route", acquires_per_route, "count");
  if (args.trace) {
    const double decide = trace.mean_ns(kDecide);
    const double serve = trace.mean_ns(kServe);
    const double acquire = trace.mean_ns(kAcquire);
    result.metric("core.decide_ns", decide, "ns");
    result.metric("core.walk_ns",
                  serve - decide - acquire * (acquires_per_route - 1.0), "ns");
    result.metric("core.cascade_us", median(cascade_ns) / 1e3, "us");
    result.metric("svc.publish_us", median(publish_ns) / 1e3, "us");
    result.metric("svc.acquire_ns", acquire, "ns");
    result.metric("svc.serve_ns", serve, "ns");
    result.metric("workload.pair_ns", trace.mean_ns(kPair), "ns");
    result.metric("trace.overhead_frac",
                  1.0 - SliceSummary::of({&traced_meter}).routes_per_s /
                            sum.routes_per_s,
                  "ratio");
    report_self_time(trace, result);
  }
  if (args.trace && !args.spans_out.empty()) {
    std::ofstream out(args.spans_out);
    setup_trace.write(out);
    trace.write(out);
  }
  return result;
}

}  // namespace perfbench
