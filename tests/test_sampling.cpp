// obs::SamplingSink + obs::TraceBudget — the tail-sampling layer's
// load-bearing guarantees:
//
//  1. Promotion is a pure function of the route summary (unlimited
//     budget): the promoted set — and therefore the order-independent
//     digest — is bit-identical across thread counts, and the sampled
//     stream audits clean against the sampler's own counters.
//  2. Anomalous routes (drop / detour / stale / misroute) are always
//     retained as full chains while the budget admits; an exhausted
//     budget sheds to breadcrumbs-only and counts exactly what it shed.
//  3. The breadcrumb ring is a bounded flight recorder: eviction keeps
//     the newest crumbs and counts the loss.
#include "obs/sampling.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <variant>
#include <vector>

#include "obs/audit.hpp"
#include "obs/trace.hpp"
#include "workload/service_script.hpp"

namespace slcube::obs {
namespace {

/// Collects everything forwarded downstream, in arrival order.
class CollectSink final : public TraceSink {
 public:
  void on_event(const TraceEvent& ev) override { events.push_back(ev); }
  std::vector<TraceEvent> events;
};

RouteSummary make_summary(std::uint64_t route_id, bool dropped = false,
                          bool detour = false, std::uint64_t lag = 0,
                          bool misroute = false) {
  RouteSummary s;
  s.route_id = route_id;
  s.decision_epoch = 10;
  s.ground_epoch = 10 + lag;
  s.status = dropped ? "dropped-stale" : "delivered-optimal";
  s.status_code = dropped ? 3 : 0;
  s.hops = 4;
  s.dropped = dropped;
  s.detour = detour;
  s.misroute = misroute;
  return s;
}

TraceEvent filler_hop(std::uint64_t i) {
  HopEvent hop;
  hop.from = static_cast<NodeId>(i);
  hop.to = static_cast<NodeId>(i + 1);
  return hop;
}

// --- classification --------------------------------------------------------

TEST(Sampling, ClassifyMostSpecificAnomalyWins) {
  const SamplingConfig cfg;
  EXPECT_EQ(SamplingSink::classify(make_summary(1, true, true, 2, true), cfg),
            PromoteReason::kMisroute);
  EXPECT_EQ(SamplingSink::classify(make_summary(1, true, true, 2), cfg),
            PromoteReason::kDrop);
  EXPECT_EQ(SamplingSink::classify(make_summary(1, false, true, 2), cfg),
            PromoteReason::kDetour);
  EXPECT_EQ(SamplingSink::classify(make_summary(1, false, false, 2), cfg),
            PromoteReason::kStale);
  EXPECT_EQ(SamplingSink::classify(make_summary(1), cfg),
            PromoteReason::kNone);
}

TEST(Sampling, ClassifyHeadSampleIsDeterministicModulo) {
  SamplingConfig cfg;
  cfg.head_every = 4;
  for (std::uint64_t id = 0; id < 12; ++id) {
    const PromoteReason want =
        id % 4 == 0 ? PromoteReason::kHead : PromoteReason::kNone;
    EXPECT_EQ(SamplingSink::classify(make_summary(id), cfg), want) << id;
  }
  cfg.head_every = 0;  // disables the head sample
  EXPECT_EQ(SamplingSink::classify(make_summary(0), cfg), PromoteReason::kNone);
}

// --- offer / replay_chain --------------------------------------------------

TEST(Sampling, PromotedRouteForwardsChainThenSummary) {
  CollectSink sink;
  SamplingConfig cfg;
  cfg.head_every = 0;
  SamplingSink sampler(&sink, cfg);

  const RouteSummary route = make_summary(7, true);
  const SamplingSink::Offer offer = sampler.offer(route);
  EXPECT_EQ(offer.reason, PromoteReason::kDrop);
  ASSERT_TRUE(offer.promoted);
  EXPECT_TRUE(sink.events.empty()) << "offer() forwards no chain by itself";
  const std::vector<TraceEvent> chain{filler_hop(0), filler_hop(1)};
  sampler.replay_chain(route, offer.reason, chain);

  ASSERT_EQ(sink.events.size(), 3u);
  EXPECT_TRUE(std::holds_alternative<HopEvent>(sink.events[0]));
  EXPECT_TRUE(std::holds_alternative<HopEvent>(sink.events[1]));
  const auto* summary = std::get_if<RouteSummaryEvent>(&sink.events[2]);
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->route_id, 7u);
  EXPECT_TRUE(summary->promoted);
  EXPECT_STREQ(summary->reason, "drop");

  const SamplingSink::Stats stats = sampler.stats();
  EXPECT_EQ(stats.routes, 1u);
  EXPECT_EQ(stats.promoted, 1u);
  EXPECT_EQ(stats.breadcrumb_only, 0u);
  EXPECT_EQ(
      stats.promoted_by_reason[static_cast<std::size_t>(PromoteReason::kDrop)],
      1u);

  const std::vector<Breadcrumb> crumbs = sampler.breadcrumbs();
  ASSERT_EQ(crumbs.size(), 1u);
  EXPECT_EQ(crumbs[0].route_id_lo, 7u);
  EXPECT_NE(crumbs[0].flags & Breadcrumb::kFlagPromoted, 0);
}

TEST(Sampling, UnpromotedRouteLeavesOnlyABreadcrumb) {
  CollectSink sink;
  SamplingConfig cfg;
  cfg.head_every = 0;
  SamplingSink sampler(&sink, cfg);

  const SamplingSink::Offer offer = sampler.offer(make_summary(3));
  EXPECT_EQ(offer.reason, PromoteReason::kNone);
  EXPECT_FALSE(offer.promoted);

  EXPECT_TRUE(sink.events.empty());
  const SamplingSink::Stats stats = sampler.stats();
  EXPECT_EQ(stats.routes, 1u);
  EXPECT_EQ(stats.promoted, 0u);
  EXPECT_EQ(stats.breadcrumb_only, 1u);
  const std::vector<Breadcrumb> crumbs = sampler.breadcrumbs();
  ASSERT_EQ(crumbs.size(), 1u);
  EXPECT_EQ(crumbs[0].flags & Breadcrumb::kFlagPromoted, 0);
  EXPECT_EQ(sampler.promoted_digest(), 0u);
}

TEST(Sampling, PassthroughOutsideRoutesForwardsDirectly) {
  CollectSink sink;
  SamplingSink sampler(&sink, SamplingConfig{});
  EpochPublishEvent epoch;
  epoch.epoch = 42;
  sampler.on_event(epoch);
  ASSERT_EQ(sink.events.size(), 1u);
  EXPECT_EQ(sampler.stats().passthrough_events, 1u);
}

// --- thread-count invariance (the gated digest property) -------------------

/// Serve the scripted workload on `nthreads` threads through one sampler
/// into `downstream`: offer every route, replay each promoted chain.
std::uint64_t scripted_digest(const workload::ServiceScript& script,
                              std::uint64_t requests, unsigned nthreads,
                              TraceSink& downstream,
                              SamplingSink::Stats* stats_out = nullptr,
                              bool breadcrumb_summaries = false) {
  SamplingConfig cfg;
  cfg.head_every = 64;
  cfg.emit_breadcrumb_summaries = breadcrumb_summaries;
  SamplingSink sampler(&downstream, cfg);
  script.emit_epoch_events(sampler, requests);
  std::vector<std::thread> pool;
  std::uint64_t start = 0;
  for (unsigned t = 0; t < nthreads; ++t) {
    const std::uint64_t share =
        requests / nthreads + (t < requests % nthreads ? 1 : 0);
    pool.emplace_back([&, start, share] {
      CollectSink chain;
      for (std::uint64_t i = start; i < start + share; ++i) {
        const auto req = script.request(i, requests);
        if (!req.has_pair) continue;
        const svc::ServeResult res = script.serve(req);
        const RouteSummary summary =
            workload::ServiceScript::summarize(req, res);
        const SamplingSink::Offer offer = sampler.offer(summary);
        if (offer.promoted) {
          chain.events.clear();
          svc::ServeOptions opts;
          opts.trace = &chain;
          (void)script.serve(req, opts);
          sampler.replay_chain(summary, offer.reason, chain.events);
        }
      }
    });
    start += share;
  }
  for (auto& t : pool) t.join();
  if (stats_out != nullptr) *stats_out = sampler.stats();
  return sampler.promoted_digest();
}

workload::ServiceScriptConfig small_script() {
  workload::ServiceScriptConfig cfg;
  cfg.dim = 7;
  cfg.epochs = 16;
  cfg.stale_chance = 0.05;
  return cfg;
}

TEST(Sampling, PromotedDigestIsThreadCountInvariant) {
  const workload::ServiceScript script(small_script());
  const std::uint64_t requests = 4000;

  NullSink null;
  SamplingSink::Stats stats1;
  const std::uint64_t digest1 =
      scripted_digest(script, requests, 1, null, &stats1);
  ASSERT_NE(digest1, 0u);
  ASSERT_GT(stats1.promoted, 0u);

  for (const unsigned nthreads : {4u, 8u}) {
    SamplingSink::Stats stats;
    const std::uint64_t digest =
        scripted_digest(script, requests, nthreads, null, &stats);
    EXPECT_EQ(digest, digest1) << nthreads << " threads";
    EXPECT_EQ(stats.promoted, stats1.promoted) << nthreads << " threads";
    EXPECT_EQ(stats.routes, stats1.routes) << nthreads << " threads";
    EXPECT_EQ(stats.breadcrumb_only, stats1.breadcrumb_only)
        << nthreads << " threads";
  }
}

TEST(Sampling, SampledStreamAuditsCleanAndReconciles) {
  // bench_service --sample's audited pass in miniature: every promoted
  // chain reaches the auditor whole, with breadcrumb summaries for the
  // rest, and the sampler's counters reconcile against the stream.
  const workload::ServiceScriptConfig script_cfg = small_script();
  const workload::ServiceScript script(script_cfg);
  const std::uint64_t requests = 4000;
  NullSink null;
  const std::uint64_t null_digest = scripted_digest(script, requests, 1, null);
  ASSERT_NE(null_digest, 0u);

  for (const unsigned nthreads : {1u, 4u}) {
    AuditConfig audit_cfg;
    audit_cfg.dimension = script_cfg.dim;
    AuditSink audit(audit_cfg);
    SamplingSink::Stats stats;
    const std::uint64_t digest =
        scripted_digest(script, requests, nthreads, audit, &stats,
                        /*breadcrumb_summaries=*/true);
    audit.reconcile_sampling(stats.promoted, stats.breadcrumb_only,
                             stats.shed_events);
    audit.finish();
    const AuditReport report = audit.report();
    EXPECT_TRUE(report.clean()) << nthreads << " threads: "
                                << report.violations_total << " violation(s)";
    ASSERT_GT(stats.promoted, 0u);
    EXPECT_EQ(report.routes, stats.promoted) << nthreads << " threads";
    EXPECT_EQ(report.breadcrumb_routes, stats.breadcrumb_only)
        << nthreads << " threads";
    EXPECT_EQ(digest, null_digest) << nthreads << " threads";
  }
}

// --- budget ----------------------------------------------------------------

TEST(TraceBudget, UnlimitedAlwaysAdmits) {
  TraceBudget budget;  // default: unlimited
  EXPECT_TRUE(budget.unlimited());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(budget.try_admit());
  EXPECT_EQ(budget.stats().admitted, 100u);
  EXPECT_EQ(budget.stats().shed, 0u);
}

TEST(TraceBudget, ExhaustedBudgetSheds) {
  TraceBudget::Options opt;
  opt.unlimited = false;
  opt.overhead_fraction = 0.0;  // no refill: spend-down only
  opt.burst_ns = 10;
  TraceBudget budget(opt);
  EXPECT_TRUE(budget.try_admit());
  budget.settle(1'000'000);  // overdraw
  EXPECT_FALSE(budget.try_admit());
  EXPECT_FALSE(budget.try_admit());
  const TraceBudget::Stats stats = budget.stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.spent_ns, 1'000'000u);
  budget.credit_ns(10'000'000);
  EXPECT_TRUE(budget.try_admit());
}

TEST(Sampling, BudgetShedsToBreadcrumbsAndCountsTheLoss) {
  CollectSink sink;
  SamplingConfig cfg;
  cfg.head_every = 0;
  cfg.budget.unlimited = false;
  cfg.budget.overhead_fraction = 0.0;
  cfg.budget.burst_ns = 1;  // one admission, then dry
  SamplingSink sampler(&sink, cfg);

  const RouteSummary first = make_summary(0, true);
  const SamplingSink::Offer admitted = sampler.offer(first);
  EXPECT_EQ(admitted.reason, PromoteReason::kDrop);
  ASSERT_TRUE(admitted.promoted);
  const std::vector<TraceEvent> chain{filler_hop(0)};
  sampler.replay_chain(first, admitted.reason, chain);
  ASSERT_EQ(sink.events.size(), 2u);  // chain + summary

  // Overdrawn now (settle charged the forward wall time plus our help).
  sampler.budget().settle(1'000'000);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    const SamplingSink::Offer offer = sampler.offer(make_summary(id, true));
    EXPECT_EQ(offer.reason, PromoteReason::kDrop);
    EXPECT_FALSE(offer.promoted);
  }
  EXPECT_EQ(sink.events.size(), 2u) << "shed routes must forward nothing";

  const SamplingSink::Stats stats = sampler.stats();
  EXPECT_EQ(stats.promoted, 1u);
  EXPECT_EQ(stats.shed_routes, 3u);
  EXPECT_EQ(stats.shed_events, 18u);  // 3 shed chains x (4 hops + 2)
  EXPECT_EQ(
      stats.shed_by_reason[static_cast<std::size_t>(PromoteReason::kDrop)],
      3u);
  const std::vector<Breadcrumb> crumbs = sampler.breadcrumbs();
  ASSERT_EQ(crumbs.size(), 4u);
  int shed_flags = 0;
  for (const Breadcrumb& crumb : crumbs) {
    if ((crumb.flags & Breadcrumb::kFlagShed) != 0) ++shed_flags;
  }
  EXPECT_EQ(shed_flags, 3);
}

// --- breadcrumb ring -------------------------------------------------------

TEST(Sampling, BreadcrumbRingEvictsOldestAndCountsDrops) {
  CollectSink sink;
  SamplingConfig cfg;
  cfg.head_every = 0;
  SamplingSink sampler(&sink, cfg);
  for (std::uint64_t id = 0; id < kBreadcrumbCapacity + 6; ++id) {
    (void)sampler.offer(make_summary(id));
  }
  EXPECT_EQ(sampler.stats().breadcrumbs_dropped, 6u);
  const std::vector<Breadcrumb> crumbs = sampler.breadcrumbs();
  ASSERT_EQ(crumbs.size(), kBreadcrumbCapacity);
  // Oldest-first snapshot of the newest kBreadcrumbCapacity.
  for (std::uint64_t i = 0; i < kBreadcrumbCapacity; ++i) {
    ASSERT_EQ(crumbs[i].route_id_lo, 6u + i) << i;
  }
}

TEST(Sampling, BreadcrumbRecordsStaleFlagAndEpoch) {
  CollectSink sink;
  SamplingConfig cfg;
  cfg.head_every = 0;
  SamplingSink sampler(&sink, cfg);
  EXPECT_EQ(sampler.offer(make_summary(9, false, false, 3)).reason,
            PromoteReason::kStale);
  const std::vector<Breadcrumb> crumbs = sampler.breadcrumbs();
  ASSERT_EQ(crumbs.size(), 1u);
  EXPECT_NE(crumbs[0].flags & Breadcrumb::kFlagStale, 0);
  EXPECT_EQ(crumbs[0].decision_epoch_lo, 10u);
  EXPECT_EQ(crumbs[0].route_id_lo, 9u);
}

}  // namespace
}  // namespace slcube::obs
