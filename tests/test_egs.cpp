// Section 4.1: EGS (node + link faults), two-view levels, and routing
// including the footnote-3 deliver-to-treated-as-faulty rule.
#include "core/egs.hpp"

#include <gtest/gtest.h>

#include <variant>

#include "analysis/bfs.hpp"
#include "analysis/path.hpp"
#include "common/format.hpp"
#include "core/global_status.hpp"
#include "fault/injection.hpp"
#include "fault/scenario.hpp"
#include "obs/trace.hpp"

namespace slcube::core {
namespace {

TEST(Egs, NoLinkFaultsReducesToGs) {
  const topo::Hypercube q(5);
  Xoshiro256ss rng(50);
  for (int t = 0; t < 10; ++t) {
    const auto f = fault::inject_uniform(q, 6, rng);
    const fault::LinkFaultSet lf(q);
    const auto egs = run_egs(q, f, lf);
    const auto plain = compute_safety_levels(q, f);
    EXPECT_EQ(egs.public_view, plain);
    EXPECT_EQ(egs.self_view, plain);
    for (NodeId a = 0; a < q.num_nodes(); ++a) EXPECT_FALSE(egs.in_n2[a]);
  }
}

TEST(Egs, PublicViewIsGsFixedPointOfPseudoFaults) {
  // run_egs peels the public view; GS rounds over the pseudo-fault set
  // (real faults plus every healthy node touching a faulty link) must
  // reach the same table.
  Xoshiro256ss rng(51);
  for (unsigned n = 4; n <= 9; ++n) {
    const topo::Hypercube q(n);
    for (int t = 0; t < 4; ++t) {
      const auto f =
          fault::inject_uniform(q, 1 + rng.below(q.num_nodes() / 8), rng);
      const auto lf =
          fault::inject_links_uniform(q, 1 + rng.below(2 * n), rng);
      fault::FaultSet pseudo = f;
      for (NodeId a = 0; a < q.num_nodes(); ++a) {
        if (f.is_healthy(a) && lf.touches(a)) pseudo.mark_faulty(a);
      }
      EXPECT_EQ(run_egs(q, f, lf).public_view, run_gs(q, pseudo).levels)
          << "Q" << n << " trial " << t;
    }
  }
}

TEST(Egs, BothEndsOfFaultyLinkInN2) {
  const topo::Hypercube q(4);
  const fault::FaultSet none(q.num_nodes());
  fault::LinkFaultSet lf(q);
  lf.mark_faulty(0b0000, 2);
  const auto egs = run_egs(q, none, lf);
  EXPECT_TRUE(egs.in_n2[0b0000]);
  EXPECT_TRUE(egs.in_n2[0b0100]);
  EXPECT_EQ(egs.public_view[0b0000], 0);
  EXPECT_EQ(egs.public_view[0b0100], 0);
  // Self views treat only the dead link's far end as faulty: one
  // 0-neighbor, everything else healthy -> still reasonably safe.
  EXPECT_GT(egs.self_view[0b0000], 0);
  EXPECT_GT(egs.self_view[0b0100], 0);
}

TEST(Egs, FaultyNodeStaysZeroInBothViews) {
  const topo::Hypercube q(4);
  const fault::FaultSet f(q.num_nodes(), {0b1111});
  fault::LinkFaultSet lf(q);
  lf.mark_faulty(0b0000, 0);
  const auto egs = run_egs(q, f, lf);
  EXPECT_EQ(egs.public_view[0b1111], 0);
  EXPECT_EQ(egs.self_view[0b1111], 0);
  EXPECT_FALSE(egs.in_n2[0b1111]);  // N2 is for *nonfaulty* nodes only
}

TEST(Egs, RoutingAvoidsFaultyLink) {
  // Fault-free nodes, one dead link (0000, 0001): unicast 0000 -> 0001
  // must go around with an H + 2 route, never crossing the dead link.
  const topo::Hypercube q(4);
  const fault::FaultSet none(q.num_nodes());
  fault::LinkFaultSet lf(q);
  lf.mark_faulty(0b0000, 0);
  const auto egs = run_egs(q, none, lf);
  const auto r = route_unicast_egs(q, none, lf, egs, 0b0000, 0b0001);
  EXPECT_EQ(r.status, RouteStatus::kDeliveredSuboptimal);
  EXPECT_EQ(r.hops(), 3u);  // H = 1, detour = +2
  const auto chk = analysis::check_path_with_links(q, none, lf, r.path);
  EXPECT_EQ(chk.cls, analysis::PathClass::kSuboptimal) << chk.error;
}

TEST(Egs, DeliveryToN2DestinationViaHealthyLink) {
  const topo::Hypercube q(4);
  const fault::FaultSet none(q.num_nodes());
  fault::LinkFaultSet lf(q);
  lf.mark_faulty(0b0000, 0);  // 0001 is in N2
  const auto egs = run_egs(q, none, lf);
  // 1001 -> 0001: the final hop crosses the healthy link (1001, 0001).
  const auto r = route_unicast_egs(q, none, lf, egs, 0b1001, 0b0001);
  EXPECT_TRUE(r.delivered());
  const auto chk = analysis::check_path_with_links(q, none, lf, r.path);
  EXPECT_NE(chk.cls, analysis::PathClass::kInvalid) << chk.error;
}

TEST(Egs, SelfViewGuaranteeTheorem2Style) {
  // The Section 4.1 rule: from an N2 node with self level k there is a
  // Hamming path to any node within k, except its faulty-link far ends.
  // Verify against link-aware BFS over random mixed fault patterns.
  const topo::Hypercube q(5);
  Xoshiro256ss rng(51);
  for (int t = 0; t < 15; ++t) {
    const auto f = fault::inject_uniform(q, 3, rng);
    auto lf = fault::inject_links_uniform(q, 3, rng);
    const auto egs = run_egs(q, f, lf);
    for (NodeId a = 0; a < q.num_nodes(); ++a) {
      if (f.is_faulty(a) || egs.self_view[a] == 0) continue;
      const auto dist = analysis::bfs_distances_with_links(q, f, lf, a);
      for (NodeId b = 0; b < q.num_nodes(); ++b) {
        if (b == a || f.is_faulty(b)) continue;
        const unsigned h = q.distance(a, b);
        if (h > egs.self_view[a]) continue;
        // Exception: far end of one of a's own faulty links.
        if (h == 1 && lf.is_faulty(a, bits::lowest_set(a ^ b))) continue;
        // Exception (footnote 3 in reverse): guarantee is about paths
        // whose INTERIOR lies in N1; if the destination is N2 the last
        // link needs to be healthy, which it is whenever the penultimate
        // node is in N1. BFS over healthy links is exactly that ground
        // truth.
        ASSERT_EQ(dist[b], h)
            << to_bits(a, 5) << " (self level "
            << int{egs.self_view[a]} << ") cannot optimally reach "
            << to_bits(b, 5);
      }
    }
  }
}

TEST(Egs, RouteSweepDeliversWithinBounds) {
  const topo::Hypercube q(6);
  Xoshiro256ss rng(52);
  for (int t = 0; t < 15; ++t) {
    const auto f = fault::inject_uniform(q, 4, rng);
    const auto lf = fault::inject_links_uniform(q, 4, rng);
    const auto egs = run_egs(q, f, lf);
    for (int p = 0; p < 40; ++p) {
      const auto s = static_cast<NodeId>(rng.below(q.num_nodes()));
      const auto d = static_cast<NodeId>(rng.below(q.num_nodes()));
      if (s == d || f.is_faulty(s) || f.is_faulty(d)) continue;
      const auto r = route_unicast_egs(q, f, lf, egs, s, d);
      const unsigned h = q.distance(s, d);
      if (r.status == RouteStatus::kDeliveredOptimal) {
        ASSERT_EQ(r.hops(), h);
      } else if (r.status == RouteStatus::kDeliveredSuboptimal) {
        ASSERT_EQ(r.hops(), h + 2);
      }
      if (r.delivered()) {
        const auto chk = analysis::check_path_with_links(q, f, lf, r.path);
        ASSERT_NE(chk.cls, analysis::PathClass::kInvalid)
            << chk.error << ": " << analysis::format_path(r.path, 6);
      }
    }
  }
}

TEST(Egs, SourceRefusalsAreHonest) {
  // When the EGS source refuses, no H or H+2 path through N1 interiors
  // should exist... the cheap verifiable claim: the destination is not
  // reachable at Hamming distance via healthy links, or every qualifying
  // neighbor fails the level test. At minimum the refusal must never
  // happen when the source is safe in its own view.
  const topo::Hypercube q(5);
  Xoshiro256ss rng(53);
  for (int t = 0; t < 20; ++t) {
    const auto f = fault::inject_uniform(q, 3, rng);
    const auto lf = fault::inject_links_uniform(q, 2, rng);
    const auto egs = run_egs(q, f, lf);
    for (NodeId s = 0; s < q.num_nodes(); ++s) {
      if (f.is_faulty(s)) continue;
      if (egs.self_view[s] != q.dimension()) continue;  // safe self view
      for (NodeId d = 0; d < q.num_nodes(); ++d) {
        if (d == s || f.is_faulty(d)) continue;
        if (q.distance(s, d) == 1 &&
            lf.is_faulty(s, bits::lowest_set(s ^ d))) {
          continue;  // dead-link destination: refusal is legitimate
        }
        const auto r = route_unicast_egs(q, f, lf, egs, s, d);
        ASSERT_NE(r.status, RouteStatus::kSourceRefused)
            << to_bits(s, 5) << " -> " << to_bits(d, 5);
      }
    }
  }
}

TEST(Egs, EgsViewsOverloadMatchesEgsResultOverload) {
  // The EgsViews entry points (what EgsOracle drives) must agree with
  // the EgsResult convenience overloads on every decision field and hop.
  const topo::Hypercube q(5);
  Xoshiro256ss rng(54);
  for (int t = 0; t < 10; ++t) {
    const auto f = fault::inject_uniform(q, 4, rng);
    const auto lf = fault::inject_links_uniform(q, 4, rng);
    const auto egs = run_egs(q, f, lf);
    const EgsViews views{egs.public_view, egs.self_view};
    for (int p = 0; p < 30; ++p) {
      const auto s = static_cast<NodeId>(rng.below(q.num_nodes()));
      const auto d = static_cast<NodeId>(rng.below(q.num_nodes()));
      if (s == d || f.is_faulty(s) || f.is_faulty(d)) continue;
      const auto dec_a = decide_at_source_egs(q, lf, egs, s, d);
      const auto dec_b = decide_at_source_egs(q, lf, views, s, d);
      ASSERT_EQ(dec_a.c1, dec_b.c1);
      ASSERT_EQ(dec_a.c2, dec_b.c2);
      ASSERT_EQ(dec_a.c3, dec_b.c3);
      ASSERT_EQ(dec_a.hamming, dec_b.hamming);
      ASSERT_EQ(dec_a.dest_link_faulty, dec_b.dest_link_faulty);
      const auto r_a = route_unicast_egs(q, f, lf, egs, s, d);
      const auto r_b = route_unicast_egs(q, f, lf, views, s, d);
      ASSERT_EQ(r_a.status, r_b.status);
      ASSERT_EQ(r_a.path, r_b.path);
    }
  }
}

TEST(Egs, DestAcrossDeadLinkForcesC1Off) {
  const topo::Hypercube q(4);
  const fault::FaultSet none(q.num_nodes());
  fault::LinkFaultSet lf(q);
  lf.mark_faulty(0b0000, 0);
  const auto egs = run_egs(q, none, lf);
  const auto dec = decide_at_source_egs(q, lf, egs, 0b0000, 0b0001);
  EXPECT_TRUE(dec.dest_link_faulty);
  EXPECT_FALSE(dec.c1);  // footnote 3: the self-view guarantee excludes it
  // A neighbor at distance 2 across healthy links is not affected.
  const auto dec2 = decide_at_source_egs(q, lf, egs, 0b0000, 0b0110);
  EXPECT_FALSE(dec2.dest_link_faulty);
}

TEST(Egs, TracedRouteMatchesUntracedAndCarriesTwoViewContext) {
  const topo::Hypercube q(4);
  const fault::FaultSet none(q.num_nodes());
  fault::LinkFaultSet lf(q);
  lf.mark_faulty(0b0000, 0);
  const auto egs = run_egs(q, none, lf);

  // The H + 2 detour around the source's own dead link, traced.
  obs::RingBufferSink ring;
  UnicastOptions traced;
  traced.trace = &ring;
  const auto r = route_unicast_egs(q, none, lf, egs, 0b0000, 0b0001, traced);
  const auto r_plain = route_unicast_egs(q, none, lf, egs, 0b0000, 0b0001);
  EXPECT_EQ(r.status, r_plain.status);
  EXPECT_EQ(r.path, r_plain.path);
  ASSERT_EQ(r.status, RouteStatus::kDeliveredSuboptimal);

  const auto events = ring.snapshot();
  // source_decision + one hop per edge + route_done.
  ASSERT_EQ(events.size(), 2 + r.hops());
  const auto* src = std::get_if<obs::SourceDecisionEvent>(&events.front());
  ASSERT_NE(src, nullptr);
  EXPECT_TRUE(src->egs);
  EXPECT_EQ(src->self_level, egs.self_view[0b0000]);
  EXPECT_TRUE(src->dest_link_faulty);
  EXPECT_FALSE(src->c1);
  EXPECT_TRUE(src->spare);  // first hop is the spare detour
  const auto* hop1 = std::get_if<obs::HopEvent>(&events[1]);
  ASSERT_NE(hop1, nullptr);
  EXPECT_FALSE(hop1->preferred);
  const auto* done = std::get_if<obs::RouteDoneEvent>(&events.back());
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->hops, r.hops());

  // An optimal route into an N2 destination: final hop is the forced
  // delivery across the healthy connecting link.
  ring.clear();
  const auto r2 = route_unicast_egs(q, none, lf, egs, 0b1001, 0b0001, traced);
  ASSERT_TRUE(r2.delivered());
  const auto ev2 = ring.snapshot();
  const auto* src2 = std::get_if<obs::SourceDecisionEvent>(&ev2.front());
  ASSERT_NE(src2, nullptr);
  EXPECT_TRUE(src2->egs);
  EXPECT_FALSE(src2->dest_link_faulty);
  const auto* last_hop = std::get_if<obs::HopEvent>(&ev2[ev2.size() - 2]);
  ASSERT_NE(last_hop, nullptr);
  EXPECT_EQ(last_hop->to, NodeId{0b0001});
  EXPECT_TRUE(last_hop->preferred);
}

TEST(Egs, EndToEndFig4AlternateUnicasts)  {
  // More routes in the Fig. 4 machine: N2 source 1001 reaching across
  // the cube, and a unicast INTO 1000 from far away.
  const auto sc = fault::scenario::fig4();
  const auto egs = run_egs(sc.cube, sc.faults, sc.link_faults);
  // 1001 -> 1111 (H=2): self view of 1001 is 2 -> C1 optimal.
  const auto r1 = route_unicast_egs(sc.cube, sc.faults, sc.link_faults, egs,
                                    from_bits("1001"), from_bits("1111"));
  EXPECT_EQ(r1.status, RouteStatus::kDeliveredOptimal);
  // 1011 -> 1000 (H=2): via 1010 then the healthy link into 1000.
  const auto r2 = route_unicast_egs(sc.cube, sc.faults, sc.link_faults, egs,
                                    from_bits("1011"), from_bits("1000"));
  EXPECT_TRUE(r2.delivered());
  const auto chk = analysis::check_path_with_links(sc.cube, sc.faults,
                                                   sc.link_faults, r2.path);
  EXPECT_NE(chk.cls, analysis::PathClass::kInvalid) << chk.error;
}

}  // namespace
}  // namespace slcube::core
