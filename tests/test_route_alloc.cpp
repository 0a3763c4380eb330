// Heap allocations per routed unicast and per writer call. The walk
// reserves the longest possible path (H + 2 hops) before the first
// push_back, so every route — delivered, detoured, refused — costs
// exactly one allocation: its path. The EGS oracle keeps its worklists
// and scratch lists across calls, so once warm a writer call costs none.
// This binary replaces the global operator new to count allocations on
// the calling thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/egs.hpp"
#include "core/egs_oracle.hpp"
#include "fault/injection.hpp"
#include "svc/serve.hpp"
#include "svc/snapshot_oracle.hpp"
#include "workload/pair_sampler.hpp"

namespace {

thread_local std::uint64_t t_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// The default array and nothrow forms of new and delete call these.
void* operator new(std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace slcube {
namespace {

constexpr int kPairs = 2000;

/// 1% node faults plus 2n faulty links between healthy nodes; 2,000
/// uniform healthy pairs, then the two ends of each faulty link, which
/// C1 and C2 refuse, so their routes take the H + 2 detour.
struct FaultyCube {
  topo::Hypercube cube;
  fault::FaultSet faults;
  fault::LinkFaultSet links;
  std::vector<workload::Pair> pairs;

  explicit FaultyCube(unsigned n) : cube(n), links(cube) {
    Xoshiro256ss rng(0xa110c + n);
    faults = fault::inject_uniform(cube, cube.num_nodes() / 100, rng);
    while (links.count() < 2 * n) {
      const auto a = static_cast<NodeId>(rng.below(cube.num_nodes()));
      const auto d = static_cast<Dim>(rng.below(n));
      if (faults.is_healthy(a) && faults.is_healthy(cube.neighbor(a, d))) {
        links.mark_faulty(a, d);
      }
    }
    for (int i = 0; i < kPairs; ++i) {
      pairs.push_back(*workload::sample_uniform_pair(faults, rng));
    }
    for (const auto& [a, d] : links.faulty_links()) {
      pairs.push_back({a, cube.neighbor(a, d)});
    }
  }
};

class RouteAlloc : public ::testing::TestWithParam<unsigned> {};

TEST_P(RouteAlloc, RouteUnicastEgsAllocatesOncePerRoute) {
  const FaultyCube net(GetParam());
  const core::EgsResult egs = core::run_egs(net.cube, net.faults, net.links);
  unsigned detours = 0;
  for (const auto& p : net.pairs) {
    const std::uint64_t before = t_allocations;
    const core::RouteResult r = core::route_unicast_egs(
        net.cube, net.faults, net.links, egs, p.s, p.d);
    ASSERT_EQ(t_allocations - before, 1u)
        << p.s << " -> " << p.d << " " << core::to_string(r.status);
    detours += r.status == core::RouteStatus::kDeliveredSuboptimal ? 1u : 0u;
  }
  EXPECT_GT(detours, 0u);  // the longest paths were taken
}

TEST_P(RouteAlloc, ServeRouteAllocatesOncePerRoute) {
  const FaultyCube net(GetParam());
  const svc::SnapshotOracle oracle(net.cube, net.faults, net.links);
  const svc::SnapshotPtr snap = oracle.acquire();
  for (const auto& p : net.pairs) {
    const std::uint64_t before = t_allocations;
    const svc::ServeResult r = svc::serve_route(*snap, *snap, p.s, p.d);
    ASSERT_EQ(t_allocations - before, 1u)
        << p.s << " -> " << p.d << " " << core::to_string(r.status);
  }
}

INSTANTIATE_TEST_SUITE_P(Q10AndQ16, RouteAlloc, ::testing::Values(10u, 16u));

// Every writer call of a warm EgsOracle reuses its scratch: node and link
// fail/recover pairs (one cascade per pseudo toggle) and a pair of
// four-toggle batches (two nodes and two links on six distinct nodes, so
// six pseudo toggles and one SafetyOracle::apply). Each pair returns the
// oracle to the same state, so one warm-up pass sizes every list for the
// passes that follow.
TEST(WriterAlloc, WarmEgsOracleWriterCallsAllocateNothing) {
  const FaultyCube net(10);
  core::EgsOracle oracle(net.cube, net.faults, net.links);
  // Distinct healthy nodes off every faulty link.
  std::vector<NodeId> picked;
  const auto usable = [&](NodeId a) {
    return net.faults.is_healthy(a) && !net.links.touches(a) &&
           std::find(picked.begin(), picked.end(), a) == picked.end();
  };
  std::vector<core::EgsOracle::LinkToggle> links;
  for (const auto& p : net.pairs) {
    if (!usable(p.s)) continue;
    if (picked.size() < 2) {
      picked.push_back(p.s);
      continue;
    }
    for (Dim d = 0; d < net.cube.dimension(); ++d) {
      const NodeId b = net.cube.neighbor(p.s, d);
      if (!usable(b)) continue;
      picked.insert(picked.end(), {p.s, b});
      links.push_back({p.s, d});
      break;
    }
    if (links.size() == 2) break;
  }
  ASSERT_EQ(links.size(), 2u);
  const NodeId nodes[] = {picked[0], picked[1]};
  const auto pass = [&] {
    oracle.add_fault(nodes[0]);
    oracle.remove_fault(nodes[0]);
    oracle.fail_link(links[0].node, links[0].dim);
    oracle.recover_link(links[0].node, links[0].dim);
    oracle.apply(nodes, links);
    oracle.apply(nodes, links);
  };
  pass();  // warm-up: the lists grow to their working size
  const core::SafetyOracle::Stats warm = oracle.pseudo_stats();
  const std::uint64_t before = t_allocations;
  for (int i = 0; i < 20; ++i) pass();
  EXPECT_EQ(t_allocations - before, 0u);
  EXPECT_GT(oracle.pseudo_stats().level_changes, warm.level_changes);
  EXPECT_EQ(oracle.faults(), net.faults);
  EXPECT_EQ(oracle.links().count(), net.links.count());
}

}  // namespace
}  // namespace slcube
