// Distributed EGS over the simulator with faulty links: agreement with
// the centralized core::run_egs oracle, link-level message dropping, and
// end-to-end unicasts on the two-view levels.
#include <gtest/gtest.h>

#include "core/egs.hpp"
#include "fault/injection.hpp"
#include "fault/scenario.hpp"
#include "sim/protocol_gs.hpp"
#include "sim/protocol_unicast.hpp"

namespace slcube::sim {
namespace {

TEST(NetworkLinks, FaultyLinkDropsMessages) {
  const topo::Hypercube q(3);
  fault::LinkFaultSet lf(q);
  lf.mark_faulty(0b000, 0);
  Network net(q, fault::FaultSet(q.num_nodes()), lf);
  net.send(0b000, 0b001, LevelUpdate{0b000, 2});
  unsigned handled = 0;
  net.run([&](const Scheduled&) {
    ++handled;
    return true;
  });
  EXPECT_EQ(handled, 0u);
  EXPECT_EQ(net.stats().dropped, 1u);
}

TEST(NetworkLinks, RegisterBehindFaultyLinkReadsZero) {
  const topo::Hypercube q(3);
  fault::LinkFaultSet lf(q);
  lf.mark_faulty(0b000, 1);
  Network net(q, fault::FaultSet(q.num_nodes()), lf);
  EXPECT_EQ(net.neighbor_register(0b000, 1), 0);
  EXPECT_EQ(net.neighbor_register(0b010, 1), 0);  // other end, same link
  EXPECT_EQ(net.neighbor_register(0b000, 0), 3);  // healthy link
}

TEST(NetworkLinks, InN2Classification) {
  const topo::Hypercube q(4);
  fault::FaultSet f(q.num_nodes(), {0b1111});
  fault::LinkFaultSet lf(q);
  lf.mark_faulty(0b0000, 2);
  Network net(q, f, lf);
  EXPECT_TRUE(net.in_n2(0b0000));
  EXPECT_TRUE(net.in_n2(0b0100));
  EXPECT_FALSE(net.in_n2(0b0001));
  EXPECT_FALSE(net.in_n2(0b1111));  // faulty, not N2
}

void expect_matches_egs_oracle(Network& net) {
  const auto egs =
      core::run_egs(net.cube(), net.faults(), net.link_faults());
  const auto sim = run_egs_synchronous(net);
  for (NodeId a = 0; a < net.cube().num_nodes(); ++a) {
    // level_of == self view for everyone (N1's self view == public).
    ASSERT_EQ(net.level_of(a), egs.self_view[a]) << "node " << a;
    // Neighbors' registers hold the public view.
    net.cube().for_each_neighbor(a, [&](Dim, NodeId b) {
      if (net.faults().is_faulty(b)) return;
      const Dim back = bits::lowest_set(a ^ b);
      ASSERT_EQ(net.neighbor_register(b, back), egs.public_view[a])
          << "register at " << b << " for " << a;
    });
  }
  (void)sim;
}

TEST(DistributedEgs, Fig4MatchesOracle) {
  const auto sc = fault::scenario::fig4();
  Network net(sc.cube, sc.faults, sc.link_faults);
  expect_matches_egs_oracle(net);
}

TEST(DistributedEgs, RandomMixedFaultsMatchOracle) {
  const topo::Hypercube q(5);
  Xoshiro256ss rng(515);
  for (int t = 0; t < 15; ++t) {
    const auto f = fault::inject_uniform(q, 4, rng);
    const auto lf = fault::inject_links_uniform(q, 4, rng);
    Network net(q, f, lf);
    expect_matches_egs_oracle(net);
  }
}

TEST(DistributedEgs, NoLinkFaultsReducesToPlainGs) {
  const topo::Hypercube q(5);
  Xoshiro256ss rng(516);
  const auto f = fault::inject_uniform(q, 6, rng);
  Network a(q, f);
  Network b(q, f, fault::LinkFaultSet(q));
  const auto ra = run_gs_synchronous(a);
  const auto rb = run_egs_synchronous(b);
  EXPECT_EQ(ra.rounds, rb.rounds);
  for (NodeId x = 0; x < q.num_nodes(); ++x) {
    EXPECT_EQ(a.level_of(x), b.level_of(x));
  }
}

TEST(DistributedEgs, UnicastOnTwoViewLevelsDelivers) {
  // After distributed EGS, route a unicast whose source is in N1 and
  // whose path the centralized EGS router would accept: the simulated
  // hop-by-hop forwarding (which reads public-view registers) delivers
  // on the same route.
  const auto sc = fault::scenario::fig4();
  Network net(sc.cube, sc.faults, sc.link_faults);
  run_egs_synchronous(net);
  const auto egs = core::run_egs(sc.cube, sc.faults, sc.link_faults);
  // 1011 -> 1111: pure N1 traffic.
  const auto oracle = core::route_unicast_egs(
      sc.cube, sc.faults, sc.link_faults, egs, 0b1011, 0b1111);
  ASSERT_TRUE(oracle.delivered());
  const auto sim = route_unicast_sim(net, 0b1011, 0b1111);
  EXPECT_EQ(sim.status, oracle.status);
  EXPECT_EQ(sim.path, oracle.path);
}

TEST(DistributedEgs, Fig4PaperRouteHopByHop) {
  // The full Fig. 4 story executed as messages: distributed EGS, then the
  // suboptimal unicast 1101 -> 1000 whose destination is an N2 node that
  // every register reports as level 0 — the footnote-3 final hop across
  // the healthy (1010, 1000) link delivers it.
  const auto sc = fault::scenario::fig4();
  Network net(sc.cube, sc.faults, sc.link_faults);
  run_egs_synchronous(net);
  const auto oracle = core::route_unicast_egs(
      sc.cube, sc.faults, sc.link_faults,
      core::run_egs(sc.cube, sc.faults, sc.link_faults), 0b1101, 0b1000);
  const auto r = route_unicast_sim(net, 0b1101, 0b1000);
  ASSERT_EQ(r.status, core::RouteStatus::kDeliveredSuboptimal);
  EXPECT_EQ(r.status, oracle.status);
  EXPECT_EQ(r.path, oracle.path);
  EXPECT_EQ(r.path, (analysis::Path{0b1101, 0b1111, 0b1011, 0b1010,
                                    0b1000}));
  EXPECT_EQ(r.latency(), 4u);
}

TEST(DistributedEgs, DeadLinkDestinationRoutedAroundSuboptimally) {
  // 1001 -> 1000 across the dead link itself: the source's local decision
  // voids C1/C2 (the only preferred dimension is its own dead wire) and
  // falls back to C3 via the level-4 spare 1011 — delivery in H + 2 = 3
  // hops around the dead link, matching the centralized oracle.
  const auto sc = fault::scenario::fig4();
  Network net(sc.cube, sc.faults, sc.link_faults);
  run_egs_synchronous(net);
  const auto egs = core::run_egs(sc.cube, sc.faults, sc.link_faults);
  const auto oracle = core::route_unicast_egs(
      sc.cube, sc.faults, sc.link_faults, egs, 0b1001, 0b1000);
  ASSERT_EQ(oracle.status, core::RouteStatus::kDeliveredSuboptimal);
  const auto r = route_unicast_sim(net, 0b1001, 0b1000);
  ASSERT_EQ(r.status, oracle.status);
  EXPECT_EQ(r.path.size(), 4u);  // 3 hops
  EXPECT_EQ(r.path, oracle.path);
}

}  // namespace
}  // namespace slcube::sim
