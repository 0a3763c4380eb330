// table-q20: read-only routing on one immutable Q20 snapshot.
//
// 1% node faults plus 2n faulty links (so N2 nodes and the self view are
// exercised). At 2% Q20's fixed point collapses (no node keeps level 20
// and about 98% of requests are refused at the source), so the table walk
// would go unmeasured; at 1% about 93% of nodes are safe and nearly every
// route is delivered. One closed-loop thread serves uniform healthy pairs with
// serve_route(snap, snap, s, d). Nothing acquires, churns or samples, so
// this is the no-change control for svc and obs work; the GS build and
// the table walk over the largest working set do nearly all the work.
#include <fstream>
#include <memory>

#include "common/bitops.hpp"
#include "core/egs.hpp"
#include "core/packed_levels.hpp"
#include "exp/sweep_engine.hpp"
#include "harness.hpp"
#include "workload/pair_sampler.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kPrefixRoutes = 1u << 16;

svc::ServeStatus as_serve_status(core::RouteStatus s) {
  switch (s) {
    case core::RouteStatus::kDeliveredOptimal:
      return svc::ServeStatus::kDeliveredOptimal;
    case core::RouteStatus::kDeliveredSuboptimal:
      return svc::ServeStatus::kDeliveredSuboptimal;
    case core::RouteStatus::kSourceRefused:
      return svc::ServeStatus::kRefused;
    case core::RouteStatus::kStuck:
      return svc::ServeStatus::kStuck;
  }
  return svc::ServeStatus::kStuck;
}

}  // namespace

Result run_table_q20(const Args& args) {
  Result result;
  const topo::Hypercube cube(20);
  const fault::FaultSet faults =
      make_node_faults(cube, cube.num_nodes() / 100, args.seed);
  const fault::LinkFaultSet links =
      make_link_faults(cube, faults, 2 * cube.dimension(), args.seed);

  ThreadTrace setup_trace(0);
  ThreadTrace trace(1);
  ThreadTrace* const setup_tr = args.trace ? &setup_trace : nullptr;

  // --- set-up: the from-scratch two-view build behind the snapshot ------
  std::unique_ptr<svc::SnapshotOracle> oracle;
  std::unique_ptr<core::EgsResult> scratch;
  const double setup = time_setup(
      [&] { oracle.reset(); },
      [&] {
        {
          const Span span(setup_tr, kConstruct);
          oracle = std::make_unique<svc::SnapshotOracle>(cube, faults, links);
        }
        if (args.trace) {
          const Span span(setup_tr, kRunEgs);
          scratch = std::make_unique<core::EgsResult>(
              core::run_egs(cube, faults, links));
        }
      },
      5, setup_tr, result);
  if (!scratch) {
    scratch =
        std::make_unique<core::EgsResult>(core::run_egs(cube, faults, links));
  }
  const svc::SnapshotPtr snap = oracle->acquire();
  result.expect(snap->public_view == scratch->public_view &&
                    snap->self_view == scratch->self_view,
                "snapshot differs from run_egs");
  result.check("table_digest",
               core::packed_digest(snap->public_view.packed()) ^
                   exp::mix64(core::packed_digest(snap->self_view.packed())));

  // --- check prefix: untimed warm-up, every route against the core router
  Xoshiro256ss rng = exp::substream(args.seed, 4000, 0);
  std::uint64_t digest = 0;
  std::uint64_t path_digest = 0;
  std::uint64_t reads = 0;
  std::uint64_t hops = 0;
  std::uint64_t delivered = 0;
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < kPrefixRoutes; ++i) {
    const auto pair = workload::sample_uniform_pair(snap->faults, rng);
    const svc::ServeResult r = svc::serve_route(*snap, *snap, pair->s, pair->d);
    const core::RouteResult ref = core::route_unicast_egs(
        cube, faults, links, *scratch, pair->s, pair->d);
    if (as_serve_status(ref.status) != r.status || ref.path != r.path ||
        !outcome_valid(cube, r, pair->s, pair->d)) {
      ++mismatches;
    }
    digest ^= route_mix(i, static_cast<unsigned>(r.status), r.hops());
    path_digest ^= path_mix(i, r);
    reads += level_reads(cube, r, pair->d);
    hops += r.hops();
    if (r.delivered()) ++delivered;
  }
  result.expect(mismatches == 0, std::to_string(mismatches) +
                                     " prefix route(s) differ from "
                                     "core::route_unicast_egs");
  result.check("route_digest", digest);
  result.check("path_digest", path_digest);
  result.check("level_reads", reads);
  result.check("hops", hops);
  result.check("delivered", delivered);
  result.failed += mismatches;
  result.attempted += kPrefixRoutes;

  // --- timed phase -------------------------------------------------------
  // Pairs for an untraced slice are drawn before its clock starts, so the
  // sampler is never charged to the program. In the traced pass odd
  // slices run with spans (and the mirrored decide call); even slices stay
  // untraced and give the overhead baseline.
  constexpr std::size_t kSliceRoutes = 512;
  std::vector<workload::Pair> pairs(kSliceRoutes);
  SliceMeter meter;
  SliceMeter traced_meter{0, 0};  // spans, not samples, in traced slices
  std::uint64_t routes = 0;
  std::uint64_t routes_delivered = 0;
  std::uint64_t invalid = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  for (std::uint64_t slice = 0; now_ns() < deadline; ++slice) {
    const bool traced = args.trace && slice % 2 == 1;
    if (!traced) {
      for (auto& p : pairs) p = *workload::sample_uniform_pair(snap->faults, rng);
    }
    const bool moved = slice % kSlicesPerMove == 0;
    SliceMeter& m = traced ? traced_meter : meter;
    if (moved) {
      move_to_cpu(slice / kSlicesPerMove);
      meter.next_group();
    }
    m.begin();
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      svc::ServeResult r;
      if (traced) {
        trace.next_request();
        const Span req(&trace, kRequest);
        {
          const Span span(&trace, kPair);
          pairs[i] = *workload::sample_uniform_pair(snap->faults, rng);
        }
        {
          const Span span(&trace, kDecide);
          (void)core::decide_at_source_egs(cube, snap->links, snap->views(),
                                           pairs[i].s, pairs[i].d);
        }
        const Span span(&trace, kServe);
        r = svc::serve_route(*snap, *snap, pairs[i].s, pairs[i].d);
      } else if (i % kSampleEvery == 0) {
        const std::int64_t t0 = now_ns();
        r = svc::serve_route(*snap, *snap, pairs[i].s, pairs[i].d);
        m.route_sample(static_cast<double>(now_ns() - t0));
      } else {
        r = svc::serve_route(*snap, *snap, pairs[i].s, pairs[i].d);
      }
      if (r.delivered()) ++routes_delivered;
      if (!outcome_plausible(r, pairs[i].s, pairs[i].d)) ++invalid;
    }
    if (moved) {
      m.drop();
    } else {
      m.end(kSliceRoutes);
    }
    routes += kSliceRoutes;
  }
  result.expect(invalid == 0, std::to_string(invalid) +
                                  " implausible timed route(s)");
  result.failed += invalid;
  result.attempted += routes;

  const SliceSummary sum = report_routes({&meter}, result);
  result.metric("delivered_frac",
                static_cast<double>(routes_delivered) /
                    static_cast<double>(routes),
                "ratio");
  result.metric("setup_s", setup, "s");
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  result.metric("core.level_reads_per_route",
                static_cast<double>(reads) / kPrefixRoutes, "count");
  result.metric("core.hops_per_route",
                static_cast<double>(hops) / kPrefixRoutes, "count");
  if (args.trace) {
    const double decide = trace.mean_ns(kDecide);
    const double serve = trace.mean_ns(kServe);
    result.metric("core.egs_build_ms", setup_trace.mean_ns(kRunEgs) / 1e6,
                  "ms");
    result.metric("core.decide_ns", decide, "ns");
    result.metric("core.walk_ns", serve - decide, "ns");
    result.metric("svc.serve_ns", serve, "ns");
    result.metric("workload.pair_ns", trace.mean_ns(kPair), "ns");
    result.metric("trace.overhead_frac",
                  1.0 - SliceSummary::of({&traced_meter}).routes_per_s /
                            sum.routes_per_s,
                  "ratio");
    report_self_time(trace, result);
    result.notes.push_back(
        "setup: svc::SnapshotOracle construction " +
        std::to_string(setup_trace.mean_ns(kConstruct) / 1e6) +
        " ms mean, core::run_egs " +
        std::to_string(setup_trace.mean_ns(kRunEgs) / 1e6) + " ms mean");
  }
  if (args.trace && !args.spans_out.empty()) {
    std::ofstream out(args.spans_out);
    setup_trace.write(out);
    trace.write(out);
  }
  return result;
}

}  // namespace perfbench
