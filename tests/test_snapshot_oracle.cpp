// svc::SnapshotOracle + svc::serve_route — the epoch layer's three
// load-bearing guarantees:
//
//  1. Every published snapshot is bit-identical to a from-scratch
//     run_egs of that snapshot's own fault configuration, and stays so
//     (immutable) no matter how far the writer churns ahead.
//  2. With ground == decision (no churn) serve_route reproduces
//     core::route_unicast_egs exactly: same terminal status, same path.
//  3. Under churn, staleness is classified soundly: a route is dropped
//     only at a hop the *newer* epoch faulted, every drop is stale
//     (equal epochs mean identical tables, which cannot block their own
//     choices), and delivered/detour routes that raced a publication are
//     counted as stale without being harmed.
//
// The multi-reader/single-writer tests at the bottom are the TSan
// targets: real std::threads hammering acquire()/serve_route() against
// a live writer, each acquired snapshot re-verified against run_egs.
#include "svc/snapshot_oracle.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/egs.hpp"
#include "fault/injection.hpp"
#include "obs/audit.hpp"
#include "svc/serve.hpp"
#include "workload/pair_sampler.hpp"

namespace slcube::svc {
namespace {

void expect_snapshot_matches_scratch(const Snapshot& snap, const char* what) {
  const core::EgsResult scratch =
      core::run_egs(snap.links.cube(), snap.faults, snap.links);
  ASSERT_EQ(snap.public_view, scratch.public_view)
      << what << ": epoch " << snap.epoch
      << " public view diverged from run_egs";
  ASSERT_EQ(snap.self_view, scratch.self_view)
      << what << ": epoch " << snap.epoch
      << " self view diverged from run_egs";
}

TEST(SnapshotOracle, EpochZeroIsPublishedByConstruction) {
  const topo::Hypercube q(4);
  const SnapshotOracle oracle(q);
  const SnapshotPtr snap = oracle.acquire();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch, 0u);
  EXPECT_EQ(oracle.epoch(), 0u);
  EXPECT_EQ(oracle.stats().epochs_published, 0u)
      << "construction's epoch 0 must not count as a post-construction "
         "publish";
  for (NodeId a = 0; a < q.num_nodes(); ++a) {
    EXPECT_EQ(snap->public_view[a], 4);
    EXPECT_EQ(snap->self_view[a], 4);
  }
}

TEST(SnapshotOracle, ArbitraryStartConfigurationMatchesScratch) {
  Xoshiro256ss rng(0x5AFE01);
  for (unsigned dim = 3; dim <= 6; ++dim) {
    const topo::Hypercube q(dim);
    for (int t = 0; t < 10; ++t) {
      const auto faults =
          fault::inject_uniform(q, rng.below(q.num_nodes() / 4), rng);
      const auto links = fault::inject_links_uniform(q, rng.below(dim), rng);
      const SnapshotOracle oracle(q, faults, links);
      const SnapshotPtr snap = oracle.acquire();
      EXPECT_EQ(snap->faults, faults);
      expect_snapshot_matches_scratch(*snap, "arbitrary start");
    }
  }
}

TEST(SnapshotOracle, EveryWriterOpPublishesOneMatchingEpoch) {
  const topo::Hypercube q(5);
  SnapshotOracle oracle(q);
  Xoshiro256ss rng(0xC0FFEE5);
  std::uint64_t expected_epoch = 0;
  for (int op = 0; op < 60; ++op) {
    const auto faults = oracle.writer_oracle().faults();
    switch (rng.below(4)) {
      case 0: {
        const auto healthy = faults.healthy_nodes();
        if (healthy.empty()) continue;
        oracle.add_fault(healthy[rng.below(healthy.size())]);
        break;
      }
      case 1: {
        const auto faulty = faults.faulty_nodes();
        if (faulty.empty()) continue;
        oracle.remove_fault(faulty[rng.below(faulty.size())]);
        break;
      }
      case 2: {
        const auto a = static_cast<NodeId>(rng.below(q.num_nodes()));
        const auto d = static_cast<Dim>(rng.below(q.dimension()));
        if (oracle.writer_oracle().links().is_faulty(a, d)) continue;
        oracle.fail_link(a, d);
        break;
      }
      default: {
        const auto faulty = oracle.writer_oracle().links().faulty_links();
        if (faulty.empty()) continue;
        const auto [a, d] = faulty[rng.below(faulty.size())];
        oracle.recover_link(a, d);
        break;
      }
    }
    ++expected_epoch;
    const SnapshotPtr snap = oracle.acquire();
    ASSERT_EQ(snap->epoch, expected_epoch) << "op " << op;
    ASSERT_EQ(oracle.epoch(), expected_epoch);
    ASSERT_EQ(oracle.stats().epochs_published, expected_epoch);
    expect_snapshot_matches_scratch(*snap, "writer op");
  }
}

TEST(SnapshotOracle, HeldSnapshotsAreImmutableAcrossChurn) {
  const topo::Hypercube q(4);
  SnapshotOracle oracle(q);
  oracle.add_fault(3);
  const SnapshotPtr held = oracle.acquire();
  const fault::FaultSet held_faults = held->faults;
  const core::SafetyLevels held_public = held->public_view;
  const core::SafetyLevels held_self = held->self_view;
  // Churn far past the held epoch, including toggles of the same state.
  oracle.remove_fault(3);
  oracle.add_fault(7);
  oracle.fail_link(0, 2);
  oracle.add_fault(3);
  EXPECT_EQ(oracle.epoch(), 5u);
  EXPECT_EQ(held->epoch, 1u);
  EXPECT_EQ(held->faults, held_faults);
  EXPECT_EQ(held->public_view, held_public);
  EXPECT_EQ(held->self_view, held_self);
  expect_snapshot_matches_scratch(*held, "held epoch");
}

TEST(SnapshotOracle, ApplyBatchPublishesOnce) {
  const topo::Hypercube q(5);
  SnapshotOracle oracle(q);
  const NodeId nodes[] = {1, 2, 9};
  const core::EgsOracle::LinkToggle links[] = {{4, 0}, {12, 3}};
  oracle.apply(nodes, links);
  EXPECT_EQ(oracle.epoch(), 1u);
  const SnapshotPtr snap = oracle.acquire();
  EXPECT_EQ(snap->lineage.size(), 5u);
  expect_snapshot_matches_scratch(*snap, "apply batch");
}

/// The events a sink received, as the JSONL lines JsonlSink would write.
std::vector<std::string> jsonl_lines(const obs::RingBufferSink& ring) {
  std::vector<std::string> lines;
  for (const obs::TraceEvent& ev : ring.snapshot()) {
    std::ostringstream line;
    obs::write_json(line, ev);
    lines.push_back(line.str());
  }
  return lines;
}

/// The fields of a source decision, comparable in one assertion.
auto decision_fields(const core::SourceDecision& d) {
  return std::tuple(d.hamming, d.c1, d.c2, d.c3, d.dest_link_faulty);
}

// Guarantee 2: with ground == decision the serving path IS the paper's
// routing algorithm — same status, same path, same trace — across
// randomized configurations, and tracing does not change what
// serve_route or route_unicast_egs returns. The traced walks count every
// tie, so they are the full scan the untraced walks' early exits must
// match. Q3–Q5: every healthy pair of 30 configurations with up to N/3
// node faults. Q10–Q16: 2,000 random pairs of two configurations with 1%
// node faults and 2n faulty links.
TEST(Serve, MatchesRouteUnicastEgsWhenGroundEqualsDecision) {
  Xoshiro256ss rng(0x0DD5EED);
  obs::RingBufferSink core_ring;
  obs::RingBufferSink serve_ring;
  core::UnicastOptions core_traced;
  core_traced.trace = &core_ring;
  ServeOptions serve_traced;
  serve_traced.trace = &serve_ring;
  for (const unsigned dim : {3u, 4u, 5u, 10u, 12u, 14u, 16u}) {
    const topo::Hypercube q(dim);
    const bool small = dim <= 5;
    for (int t = 0; t < (small ? 30 : 2); ++t) {
      const auto faults = fault::inject_uniform(
          q, small ? rng.below(q.num_nodes() / 3) : q.num_nodes() / 100, rng);
      const auto links =
          fault::inject_links_uniform(q, small ? rng.below(dim) : 2 * dim, rng);
      const SnapshotOracle oracle(q, faults, links);
      const SnapshotPtr snap = oracle.acquire();
      std::vector<workload::Pair> pairs;
      if (small) {
        pairs = workload::all_healthy_pairs(faults);
      } else {
        for (int p = 0; p < 2'000; ++p) {
          pairs.push_back(*workload::sample_uniform_pair(faults, rng));
        }
      }
      for (const auto& [s, d] : pairs) {
        core_ring.clear();
        serve_ring.clear();
        const core::RouteResult expected = core::route_unicast_egs(
            q, faults, links, snap->views(), s, d);
        const ServeResult got = serve_route(*snap, *snap, s, d);
        SCOPED_TRACE(::testing::Message() << "dim " << dim << " trial " << t
                                          << " s=" << s << " d=" << d);
        ASSERT_EQ(got.path, expected.path);
        ASSERT_FALSE(got.stale());
        ASSERT_EQ(got.status, expected.status);
        ASSERT_EQ(decision_fields(got.decision),
                  decision_fields(expected.decision));
        ASSERT_NE(got.status, ServeStatus::kStuck)
            << "fixed-point tables cannot produce kStuck";

        // Traced twins: same results, and the same event chain.
        const core::RouteResult expected_traced = core::route_unicast_egs(
            q, faults, links, snap->views(), s, d, core_traced);
        const ServeResult got_traced =
            serve_route(*snap, *snap, s, d, serve_traced);
        ASSERT_EQ(expected_traced.status, expected.status);
        ASSERT_EQ(expected_traced.path, expected.path);
        ASSERT_EQ(decision_fields(expected_traced.decision),
                  decision_fields(expected.decision));
        ASSERT_EQ(got_traced.status, got.status);
        ASSERT_EQ(got_traced.path, got.path);
        ASSERT_EQ(decision_fields(got_traced.decision),
                  decision_fields(got.decision));
        ASSERT_EQ(got_traced.decision_epoch, got.decision_epoch);
        ASSERT_EQ(got_traced.ground_epoch, got.ground_epoch);
        const auto core_events = jsonl_lines(core_ring);
        const auto serve_events = jsonl_lines(serve_ring);
        ASSERT_EQ(core_ring.dropped() + serve_ring.dropped(), 0u);
        ASSERT_GE(core_events.size(), 2u);  // source decision + route done
        ASSERT_EQ(serve_events.size(), core_events.size());
        for (std::size_t i = 0; i < core_events.size(); ++i) {
          ASSERT_EQ(serve_events[i], core_events[i]) << "event " << i;
        }
      }
    }
  }
}

// Guarantee 3, constructed cases. Fault-free Q3, s=0, d=7: the default
// lowest-dim preference walks 0 -> 1 -> 3 -> 7.
TEST(Serve, StalenessDropsAtTheExactFaultedHop) {
  const topo::Hypercube q(3);
  SnapshotOracle oracle(q);
  const SnapshotPtr decision = oracle.acquire();

  {  // First-hop link dies after the decision snapshot was acquired.
    oracle.fail_link(0, 0);
    const ServeResult res =
        serve_route(*decision, *oracle.acquire(), 0, 7);
    EXPECT_EQ(res.status, ServeStatus::kDroppedLink);
    EXPECT_TRUE(res.stale());
    EXPECT_EQ(res.path, (analysis::Path{0}));  // died leaving the source
    EXPECT_EQ(res.decision_epoch, 0u);
    EXPECT_EQ(res.ground_epoch, 1u);
    oracle.recover_link(0, 0);
  }
  {  // Second node on the path dies: one hop lands, the next drops.
    oracle.add_fault(3);
    const ServeResult res =
        serve_route(*decision, *oracle.acquire(), 0, 7);
    EXPECT_EQ(res.status, ServeStatus::kDroppedNode);
    EXPECT_TRUE(res.stale());
    EXPECT_EQ(res.path, (analysis::Path{0, 1}));
    oracle.remove_fault(3);
  }
  {  // The source itself is dead in the live epoch: nothing is sent.
    oracle.add_fault(0);
    const ServeResult res =
        serve_route(*decision, *oracle.acquire(), 0, 7);
    EXPECT_EQ(res.status, ServeStatus::kDroppedSource);
    EXPECT_TRUE(res.stale());
    EXPECT_EQ(res.hops(), 0u);
    oracle.remove_fault(0);
  }
  {  // A fault off the path: the stale route is delivered anyway.
    oracle.add_fault(6);
    const ServeResult res =
        serve_route(*decision, *oracle.acquire(), 0, 7);
    EXPECT_EQ(res.status, ServeStatus::kDeliveredOptimal);
    EXPECT_TRUE(res.stale());
    EXPECT_EQ(res.path, (analysis::Path{0, 1, 3, 7}));
  }
}

// Randomized churn between decision and ground: drops imply staleness
// (the contrapositive of "identical tables cannot block their own
// choices"), and the fatal hop is always ground-faulty.
TEST(Serve, EveryDropIsStale) {
  Xoshiro256ss rng(0xD20BB5);
  const topo::Hypercube q(5);
  SnapshotOracle oracle(q);
  std::uint64_t drops = 0;
  for (int t = 0; t < 400; ++t) {
    const SnapshotPtr decision = oracle.acquire();
    // 0-3 churn events between decision and serve.
    const int churn = static_cast<int>(rng.below(4));
    for (int c = 0; c < churn; ++c) {
      const auto faults = oracle.writer_oracle().faults();
      if (faults.count() >= q.num_nodes() / 3 || rng.chance(0.3)) {
        const auto faulty = faults.faulty_nodes();
        if (!faulty.empty()) {
          oracle.remove_fault(faulty[rng.below(faulty.size())]);
          continue;
        }
      }
      if (rng.chance(0.5)) {
        const auto healthy = faults.healthy_nodes();
        oracle.add_fault(healthy[rng.below(healthy.size())]);
      } else {
        const auto a = static_cast<NodeId>(rng.below(q.num_nodes()));
        const auto d = static_cast<Dim>(rng.below(q.dimension()));
        if (!oracle.writer_oracle().links().is_faulty(a, d)) {
          oracle.fail_link(a, d);
        }
      }
    }
    const auto pair = workload::sample_uniform_pair(decision->faults, rng);
    ASSERT_TRUE(pair.has_value());
    const ServeResult res = serve_route(oracle, decision, pair->s, pair->d);
    ASSERT_GE(res.ground_epoch, res.decision_epoch);
    if (res.dropped()) {
      ++drops;
      ASSERT_TRUE(res.stale())
          << "trial " << t << ": a drop with ground == decision epoch";
    }
    ASSERT_NE(res.status, ServeStatus::kStuck);
  }
  EXPECT_GT(drops, 0u) << "churn never killed a route; weak test";
}

// Guarantee 1 under real concurrency — the TSan target. Readers verify
// every acquired snapshot against a from-scratch run_egs of the
// snapshot's own configuration while the writer churns.
TEST(SnapshotOracle, ConcurrentReadersSeeOnlyFixedPointSnapshots) {
  const topo::Hypercube q(4);
  SnapshotOracle oracle(q);
  constexpr int kReaders = 3;
  constexpr int kAcquiresPerReader = 120;
  constexpr int kWriterOps = 150;
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::atomic<std::uint64_t> max_seen_epoch{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256ss rng(0xBEEF00 + static_cast<std::uint64_t>(r));
      for (int i = 0; i < kAcquiresPerReader; ++i) {
        const SnapshotPtr snap = oracle.acquire();
        const core::EgsResult scratch =
            core::run_egs(q, snap->faults, snap->links);
        if (!(snap->public_view == scratch.public_view &&
              snap->self_view == scratch.self_view)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        // Published epochs never run backwards from a reader's view.
        std::uint64_t prev = max_seen_epoch.load(std::memory_order_relaxed);
        while (prev < snap->epoch &&
               !max_seen_epoch.compare_exchange_weak(
                   prev, snap->epoch, std::memory_order_relaxed)) {
        }
        if (const auto pair =
                workload::sample_uniform_pair(snap->faults, rng)) {
          const ServeResult res =
              serve_route(oracle, snap, pair->s, pair->d);
          if (res.dropped() && !res.stale()) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  std::thread writer([&] {
    Xoshiro256ss rng(0xFEED);
    for (int op = 0; op < kWriterOps && !stop.load(); ++op) {
      const auto faults = oracle.writer_oracle().faults();
      if (faults.count() > 4 || (faults.count() > 0 && rng.chance(0.4))) {
        const auto faulty = faults.faulty_nodes();
        oracle.remove_fault(faulty[rng.below(faulty.size())]);
      } else if (rng.chance(0.6)) {
        const auto healthy = faults.healthy_nodes();
        oracle.add_fault(healthy[rng.below(healthy.size())]);
      } else {
        const auto a = static_cast<NodeId>(rng.below(q.num_nodes()));
        const auto d = static_cast<Dim>(rng.below(q.dimension()));
        if (oracle.writer_oracle().links().is_faulty(a, d)) {
          oracle.recover_link(a, d);
        } else {
          oracle.fail_link(a, d);
        }
      }
    }
  });
  for (auto& t : readers) t.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(max_seen_epoch.load(), oracle.epoch());
  expect_snapshot_matches_scratch(*oracle.acquire(), "final epoch");
}

// The serving path's trace dialect satisfies the paper auditor even
// while routes race publications: delivered routes pass the strict hop
// checks, staleness drops pass the in-flight-death rules, and the
// writer's fail/recover events land in its own audit lane.
TEST(Serve, AuditCleanUnderChurn) {
  const topo::Hypercube q(4);
  SnapshotOracle oracle(q);
  obs::AuditConfig config;
  config.dimension = q.dimension();
  obs::AuditSink audit(config);
  constexpr int kReaders = 2;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  std::atomic<bool> stop{false};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256ss rng(0xA0D17 + static_cast<std::uint64_t>(r));
      ServeOptions opts;
      opts.trace = &audit;
      for (int i = 0; i < 300; ++i) {
        const SnapshotPtr snap = oracle.acquire();
        const auto pair = workload::sample_uniform_pair(snap->faults, rng);
        if (!pair) continue;
        (void)serve_route(oracle, snap, pair->s, pair->d, opts);
      }
    });
  }
  std::thread writer([&] {
    Xoshiro256ss rng(0x217E5);
    while (!stop.load()) {
      const auto faults = oracle.writer_oracle().faults();
      if (faults.count() > 3 || (faults.count() > 0 && rng.chance(0.4))) {
        const auto faulty = faults.faulty_nodes();
        const NodeId back = faulty[rng.below(faulty.size())];
        oracle.remove_fault(back);
        obs::NodeRecoverEvent ev;
        ev.time = oracle.epoch();
        ev.node = back;
        audit.on_event(ev);
      } else {
        const auto healthy = faults.healthy_nodes();
        const NodeId victim = healthy[rng.below(healthy.size())];
        oracle.add_fault(victim);
        obs::NodeFailEvent ev;
        ev.time = oracle.epoch();
        ev.node = victim;
        audit.on_event(ev);
      }
      std::this_thread::yield();
    }
  });
  for (auto& t : readers) t.join();
  stop.store(true);
  writer.join();
  audit.finish();
  const obs::AuditReport report = audit.report();
  EXPECT_TRUE(report.clean()) << report.violations_total << " violation(s)"
                              << (report.details.empty()
                                      ? ""
                                      : ": " + report.details.front().detail);
  EXPECT_GT(report.routes, 0u);
}

// --- epoch lineage ---------------------------------------------------------

TEST(SnapshotOracle, LineageLinksEveryEpochToItsParentAndChurn) {
  const topo::Hypercube q(4);
  SnapshotOracle oracle(q);
  EXPECT_EQ(oracle.acquire()->parent_epoch, 0u);
  EXPECT_TRUE(oracle.acquire()->lineage.empty());

  oracle.add_fault(3);
  {
    const SnapshotPtr snap = oracle.acquire();
    EXPECT_EQ(snap->epoch, 1u);
    EXPECT_EQ(snap->parent_epoch, 0u);
    ASSERT_EQ(snap->lineage.size(), 1u);
    EXPECT_EQ(snap->lineage[0].kind, ChurnRecord::Kind::kNodeFail);
    EXPECT_EQ(snap->lineage[0].node, 3u);
  }
  oracle.fail_link(0, 2);
  {
    const SnapshotPtr snap = oracle.acquire();
    EXPECT_EQ(snap->epoch, 2u);
    EXPECT_EQ(snap->parent_epoch, 1u);
    ASSERT_EQ(snap->lineage.size(), 1u);
    EXPECT_EQ(snap->lineage[0].kind, ChurnRecord::Kind::kLinkFail);
    EXPECT_EQ(snap->lineage[0].node, 0u);
    EXPECT_EQ(snap->lineage[0].dim, 2u);
  }
  // Batched churn folds the whole batch into one epoch's lineage.
  const NodeId toggles[] = {5, 6};
  oracle.apply(toggles, {});
  {
    const SnapshotPtr snap = oracle.acquire();
    EXPECT_EQ(snap->epoch, 3u);
    EXPECT_EQ(snap->parent_epoch, 2u);
    EXPECT_EQ(snap->lineage.size(), 2u);
  }
}

TEST(SnapshotOracle, MakeEpochEventDerivesTheCause) {
  const topo::Hypercube q(4);
  SnapshotOracle oracle(q);
  {
    const obs::EpochPublishEvent ev = make_epoch_event(*oracle.acquire());
    EXPECT_EQ(ev.epoch, 0u);
    EXPECT_EQ(ev.parent, 0u);
    EXPECT_STREQ(ev.cause, "init");
    EXPECT_EQ(ev.churn, 0u);
    EXPECT_EQ(ev.ts, 0u);
  }
  oracle.add_fault(7);
  {
    const obs::EpochPublishEvent ev = make_epoch_event(*oracle.acquire());
    EXPECT_EQ(ev.epoch, 1u);
    EXPECT_EQ(ev.parent, 0u);
    EXPECT_STREQ(ev.cause, "node-fail");
    EXPECT_EQ(ev.node, 7);
    EXPECT_EQ(ev.dim, -1);  // node churn has no link dimension
    EXPECT_EQ(ev.churn, 1u);
    EXPECT_EQ(ev.faults, 1u);
    EXPECT_EQ(ev.ts, 1u);  // stamped with the epoch number by default
  }
  oracle.fail_link(1, 3);
  {
    const obs::EpochPublishEvent ev = make_epoch_event(*oracle.acquire());
    EXPECT_STREQ(ev.cause, "link-fail");
    EXPECT_EQ(ev.node, 1);
    EXPECT_EQ(ev.dim, 3);
    EXPECT_EQ(ev.links, 1u);
  }
  const NodeId toggles[] = {2, 5};
  oracle.apply(toggles, {});
  {
    const obs::EpochPublishEvent ev = make_epoch_event(*oracle.acquire());
    EXPECT_STREQ(ev.cause, "batch");
    EXPECT_EQ(ev.node, -1);  // several records: no single subject
    EXPECT_EQ(ev.churn, 2u);
  }
}

TEST(SnapshotOracle, SetTraceEmitsOneEpochPublishPerPublish) {
  const topo::Hypercube q(4);
  SnapshotOracle oracle(q);
  obs::RingBufferSink ring;
  oracle.set_trace(&ring);
  oracle.add_fault(1);
  oracle.remove_fault(1);
  const NodeId toggles[] = {4};
  oracle.apply(toggles, {});
  oracle.set_trace(nullptr);
  oracle.add_fault(9);  // after detach: not traced

  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 3u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto* ev = std::get_if<obs::EpochPublishEvent>(&events[i]);
    ASSERT_NE(ev, nullptr) << "event " << i;
    EXPECT_EQ(ev->epoch, i + 1);
    EXPECT_EQ(ev->parent, i);
  }
  EXPECT_STREQ(
      std::get<obs::EpochPublishEvent>(events[0]).cause, "node-fail");
  EXPECT_STREQ(
      std::get<obs::EpochPublishEvent>(events[1]).cause, "node-recover");
}

}  // namespace
}  // namespace slcube::svc
