// core::EgsOracle — the incremental two-view EGS table must be
// bit-identical to a from-scratch run_egs() after ANY interleaving of
// node add/remove, link fail/recover, and mixed batches small and large.
// Theorem 1 pins the public view (the pseudo-fault fixed point is
// unique) and the self view is a pure function of the public view plus
// the link set, so there is exactly one right answer per configuration
// and a randomized sweep leaves the cascade + dirty-set logic nowhere
// to hide.
#include "core/egs_oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "fault/injection.hpp"

namespace slcube::core {
namespace {

void expect_matches_scratch(const EgsOracle& oracle, const char* what) {
  const EgsResult scratch =
      run_egs(oracle.cube(), oracle.faults(), oracle.links());
  ASSERT_EQ(oracle.public_view(), scratch.public_view)
      << what << ": public view diverged from run_egs (dim "
      << oracle.cube().dimension() << ", " << oracle.faults().count()
      << " node faults, " << oracle.links().count() << " link faults)";
  ASSERT_EQ(oracle.self_view(), scratch.self_view)
      << what << ": self view diverged from run_egs (dim "
      << oracle.cube().dimension() << ")";
  for (NodeId a = 0; a < oracle.cube().num_nodes(); ++a) {
    ASSERT_EQ(oracle.in_n2(a), static_cast<bool>(scratch.in_n2[a]))
        << what << ": N2 membership diverged at node " << a;
  }
}

TEST(EgsOracle, FaultFreeStartIsAllSafe) {
  const topo::Hypercube q(5);
  const EgsOracle oracle(q);
  EXPECT_EQ(oracle.faults().count(), 0u);
  EXPECT_EQ(oracle.links().count(), 0u);
  for (NodeId a = 0; a < q.num_nodes(); ++a) {
    EXPECT_EQ(oracle.public_view()[a], 5);
    EXPECT_EQ(oracle.self_view()[a], 5);
    EXPECT_FALSE(oracle.in_n2(a));
  }
}

TEST(EgsOracle, ConstructionAtArbitraryConfigurationMatchesScratch) {
  Xoshiro256ss rng(0xE65AB1E);
  for (unsigned dim = 3; dim <= 8; ++dim) {
    const topo::Hypercube q(dim);
    for (int t = 0; t < 20; ++t) {
      const auto faults =
          fault::inject_uniform(q, rng.below(q.num_nodes() / 2), rng);
      const auto links = fault::inject_links_uniform(q, rng.below(2 * dim), rng);
      const EgsOracle oracle(q, faults, links);
      expect_matches_scratch(oracle, "constructor");
    }
  }
}

TEST(EgsOracle, ConstructionFindsN2FromTheFaultyLinks) {
  // Q4 with faulty nodes 0011, 1000 and 1001. Node 0101 has two faulty
  // links, to 0100 and 0111; 0011-1011 ends at a faulty node, so only
  // 1011 joins N2; and 1000-1001 joins two faulty nodes, so neither end
  // does.
  const topo::Hypercube q(4);
  const fault::FaultSet faults(q.num_nodes(), {0b0011, 0b1000, 0b1001});
  fault::LinkFaultSet links(q);
  links.mark_faulty(0b0101, 0);
  links.mark_faulty(0b0101, 1);
  links.mark_faulty(0b0011, 3);
  links.mark_faulty(0b1000, 0);
  const EgsOracle oracle(q, faults, links);
  expect_matches_scratch(oracle, "constructor");
  std::vector<NodeId> n2;
  for (NodeId a = 0; a < q.num_nodes(); ++a) {
    if (oracle.in_n2(a)) n2.push_back(a);
  }
  EXPECT_EQ(n2, (std::vector<NodeId>{0b0100, 0b0101, 0b0111, 0b1011}));
  EXPECT_EQ(oracle.public_view()[0b0101], 0);
  EXPECT_EQ(oracle.public_view()[0b1011], 0);
}

TEST(EgsOracle, SingleLinkFailThenRecoverRoundTrips) {
  const topo::Hypercube q(4);
  EgsOracle oracle(q);
  oracle.fail_link(0b0000, 1);
  expect_matches_scratch(oracle, "fail_link");
  // Both (healthy) endpoints enter N2 and self-declare 0 publicly.
  EXPECT_TRUE(oracle.in_n2(0b0000));
  EXPECT_TRUE(oracle.in_n2(0b0010));
  EXPECT_EQ(oracle.public_view()[0b0000], 0);
  EXPECT_EQ(oracle.public_view()[0b0010], 0);
  EXPECT_GT(oracle.self_view()[0b0000], 0);
  oracle.recover_link(0b0000, 1);
  expect_matches_scratch(oracle, "recover_link");
  for (NodeId a = 0; a < q.num_nodes(); ++a) {
    EXPECT_EQ(oracle.public_view()[a], 4) << "node " << a;
    EXPECT_EQ(oracle.self_view()[a], 4) << "node " << a;
    EXPECT_FALSE(oracle.in_n2(a)) << "node " << a;
  }
}

TEST(EgsOracle, NodeEventsAcrossN2Membership) {
  const topo::Hypercube q(5);
  EgsOracle oracle(q);
  oracle.fail_link(7, 0);
  ASSERT_TRUE(oracle.in_n2(7));
  // An N2 node dying is a pure bookkeeping move: it was already
  // pseudo-faulty, so the public view must not change at all.
  const SafetyLevels before = oracle.public_view();
  oracle.add_fault(7);
  EXPECT_FALSE(oracle.in_n2(7));
  EXPECT_EQ(oracle.public_view(), before);
  expect_matches_scratch(oracle, "add_fault on N2 node");
  // Recovery drops it straight back into N2 (the link is still dead).
  oracle.remove_fault(7);
  EXPECT_TRUE(oracle.in_n2(7));
  EXPECT_EQ(oracle.public_view(), before);
  expect_matches_scratch(oracle, "remove_fault into N2");
}

TEST(EgsOracle, ApplyMixedBatchMatchesScratch) {
  const topo::Hypercube q(6);
  Xoshiro256ss rng(0xBA7C4);
  EgsOracle oracle(q, fault::inject_uniform(q, 4, rng),
                   fault::inject_links_uniform(q, 4, rng));
  // One batch mixing node toggles with link toggles, including a link
  // incident to a toggled node.
  std::vector<NodeId> node_toggles;
  for (const NodeId a : oracle.faults().faulty_nodes()) {
    node_toggles.push_back(a);  // recover...
    if (node_toggles.size() == 2) break;
  }
  node_toggles.push_back(oracle.faults().healthy_nodes().front());  // ...kill
  const std::vector<EgsOracle::LinkToggle> link_toggles = {
      {node_toggles.back(), 0}, {node_toggles.front(), 3}};
  oracle.apply(node_toggles, link_toggles);
  expect_matches_scratch(oracle, "apply(mixed batch)");
}

// apply() with empty spans is a free no-op: no events counted, no
// cascade work, no self-view refreshes.
TEST(EgsOracle, EmptyApplyIsFree) {
  const topo::Hypercube q(6);
  Xoshiro256ss rng(0x40F);
  EgsOracle oracle(q, fault::inject_uniform(q, 5, rng),
                   fault::inject_links_uniform(q, 3, rng));
  const EgsOracle::Stats before = oracle.stats();
  const std::uint64_t cascades_before = oracle.pseudo_stats().cascades;
  oracle.apply({}, {});
  EXPECT_EQ(oracle.stats().node_events, before.node_events);
  EXPECT_EQ(oracle.stats().link_events, before.link_events);
  EXPECT_EQ(oracle.stats().self_refreshes, before.self_refreshes);
  EXPECT_EQ(oracle.pseudo_stats().cascades, cascades_before);
  expect_matches_scratch(oracle, "empty apply");
}

TEST(EgsOracle, StatsAccountForEventsAndCascades) {
  const topo::Hypercube q(6);
  EgsOracle oracle(q);
  oracle.fail_link(0, 0);
  EXPECT_EQ(oracle.stats().link_events, 1u);
  EXPECT_EQ(oracle.stats().node_events, 0u);
  EXPECT_EQ(oracle.stats().n2_enters, 2u);  // both endpoints were healthy
  // Both endpoints' self views need a NODE_STATUS evaluation.
  EXPECT_GE(oracle.stats().self_recomputes, 2u);
  EXPECT_GE(oracle.stats().self_refreshes, oracle.stats().self_recomputes);
  oracle.add_fault(1);  // the dim-0 neighbor of node 0 dies
  EXPECT_EQ(oracle.stats().node_events, 1u);
  EXPECT_EQ(oracle.stats().n2_exits, 1u);  // node 1 left N2 by dying
  oracle.recover_link(0, 0);
  EXPECT_EQ(oracle.stats().link_events, 2u);
  // Node 0 left N2; node 1 is faulty, so only one exit is new.
  EXPECT_EQ(oracle.stats().n2_exits, 2u);
  // Accounting invariant: enters - exits == current |N2|.
  std::uint64_t n2_now = 0;
  for (NodeId a = 0; a < q.num_nodes(); ++a) n2_now += oracle.in_n2(a);
  EXPECT_EQ(oracle.stats().n2_enters - oracle.stats().n2_exits, n2_now);
  expect_matches_scratch(oracle, "stats scenario");
}

// Pins the exact cascade work of one seeded Q10 churn sequence: single
// node events, link failures whose two endpoints both enter N2, link
// recoveries, and batches of five to ten pseudo toggles. The recompute
// count depends on the order in which each update seeds the worklist,
// so this pins that order on both of apply_toggles' paths (up to four
// pseudo toggles cascade one at a time; more go through one
// SafetyOracle::apply), as perfbench's churn-q16 check does at Q16.
TEST(EgsOracle, CascadeWorkMatchesPinnedCount) {
  const topo::Hypercube q(10);
  Xoshiro256ss rng(0xCA5CADE);
  EgsOracle oracle(q, fault::inject_uniform(q, 10, rng),
                   fault::inject_links_uniform(q, 10, rng));
  const auto healthy_n1 = [&](NodeId a) {
    return oracle.faults().is_healthy(a) && !oracle.in_n2(a);
  };
  const auto pick_n1 = [&] {
    NodeId a;
    do {
      a = static_cast<NodeId>(rng.below(q.num_nodes()));
    } while (!healthy_n1(a));
    return a;
  };
  for (int e = 0; e < 120; ++e) {
    switch (e % 4) {
      case 0: {  // single node event
        if (oracle.faults().count() > 16) {
          const auto faulty = oracle.faults().faulty_nodes();
          oracle.remove_fault(faulty[rng.below(faulty.size())]);
        } else {
          oracle.add_fault(pick_n1());
        }
        break;
      }
      case 1: {  // link failure: both endpoints enter N2
        NodeId a;
        Dim d;
        do {
          a = pick_n1();
          d = static_cast<Dim>(rng.below(q.dimension()));
        } while (!healthy_n1(q.neighbor(a, d)));
        oracle.fail_link(a, d);
        break;
      }
      case 2: {  // link recovery
        const auto faulty = oracle.links().faulty_links();
        const auto [a, d] = faulty[rng.below(faulty.size())];
        oracle.recover_link(a, d);
        break;
      }
      default: {  // batch: 3–5 kills, 2–3 repairs, one link recovery
        std::vector<NodeId> nodes;
        const std::uint64_t kills = 3 + rng.below(3);
        while (nodes.size() < kills) {
          const NodeId a = pick_n1();
          if (std::find(nodes.begin(), nodes.end(), a) == nodes.end()) {
            nodes.push_back(a);
          }
        }
        std::vector<NodeId> repairable;
        for (const NodeId a : oracle.faults().faulty_nodes()) {
          if (!oracle.links().touches(a)) repairable.push_back(a);
        }
        const std::uint64_t repairs = 2 + rng.below(2);
        for (std::uint64_t i = 0; i < repairs && !repairable.empty(); ++i) {
          const std::size_t at = rng.below(repairable.size());
          nodes.push_back(repairable[at]);
          repairable.erase(repairable.begin() +
                           static_cast<std::ptrdiff_t>(at));
        }
        std::vector<EgsOracle::LinkToggle> links;
        const auto faulty = oracle.links().faulty_links();
        if (!faulty.empty()) {
          const auto [a, d] = faulty[rng.below(faulty.size())];
          links.push_back({a, d});
        }
        oracle.apply(nodes, links);
        break;
      }
    }
  }
  expect_matches_scratch(oracle, "pinned churn");
  EXPECT_EQ(oracle.pseudo_stats().recomputes, 15138u);
}

// The headline property test: randomized operation sequences across
// dimensions 3..8, mixing single node add/remove, single link
// fail/recover, small mixed batches, and large batches that jump to an
// independent sample, checking bit-identity of
// BOTH views (and N2 membership) with from-scratch run_egs after EVERY
// operation, plus the enter/exit accounting invariant.
TEST(EgsOracle, RandomizedInterleavingsMatchScratch) {
  struct Budget {
    unsigned dim;
    int sequences;
  };
  constexpr Budget kBudget[] = {{3, 800}, {4, 800}, {5, 600},
                                {6, 400}, {7, 200}, {8, 100}};
  Xoshiro256ss rng(0xE6C0FFEE);
  for (const auto& [dim, sequences] : kBudget) {
    const topo::Hypercube q(dim);
    const std::uint64_t num = q.num_nodes();
    for (int s = 0; s < sequences; ++s) {
      auto mirror_f = fault::inject_uniform(q, rng.below(num / 4), rng);
      auto mirror_l = fault::inject_links_uniform(q, rng.below(dim), rng);
      EgsOracle oracle(q, mirror_f, mirror_l);
      std::uint64_t initial_n2 = 0;
      for (NodeId a = 0; a < num; ++a) initial_n2 += oracle.in_n2(a);
      const int ops = 3 + static_cast<int>(rng.below(6));
      for (int op = 0; op < ops; ++op) {
        switch (rng.below(6)) {
          case 0: {  // single node failure
            const auto healthy = mirror_f.healthy_nodes();
            if (healthy.empty()) break;
            const NodeId a = healthy[rng.below(healthy.size())];
            mirror_f.mark_faulty(a);
            oracle.add_fault(a);
            break;
          }
          case 1: {  // single node recovery
            const auto faulty = mirror_f.faulty_nodes();
            if (faulty.empty()) break;
            const NodeId a = faulty[rng.below(faulty.size())];
            mirror_f.mark_healthy(a);
            oracle.remove_fault(a);
            break;
          }
          case 2: {  // single link failure
            const auto a = static_cast<NodeId>(rng.below(num));
            const auto d = static_cast<Dim>(rng.below(dim));
            if (mirror_l.is_faulty(a, d)) break;
            mirror_l.mark_faulty(a, d);
            oracle.fail_link(a, d);
            break;
          }
          case 3: {  // single link recovery
            const auto faulty = mirror_l.faulty_links();
            if (faulty.empty()) break;
            const auto [a, d] = faulty[rng.below(faulty.size())];
            mirror_l.mark_healthy(a, d);
            oracle.recover_link(a, d);
            break;
          }
          case 4: {  // small mixed batch toggle
            std::vector<NodeId> nodes;
            std::vector<EgsOracle::LinkToggle> links;
            const int k = 1 + static_cast<int>(rng.below(4));
            for (int i = 0; i < k; ++i) {
              if (rng.chance(0.5)) {
                const auto a = static_cast<NodeId>(rng.below(num));
                // A batch may not toggle the same node twice (that
                // would be a net no-op the mirror can't express).
                if (std::find(nodes.begin(), nodes.end(), a) != nodes.end())
                  continue;
                nodes.push_back(a);
                if (mirror_f.is_faulty(a)) {
                  mirror_f.mark_healthy(a);
                } else {
                  mirror_f.mark_faulty(a);
                }
              } else {
                const auto a = static_cast<NodeId>(rng.below(num));
                const auto d = static_cast<Dim>(rng.below(dim));
                bool dup = false;
                for (const auto& lt : links) {
                  if (lt.dim == d &&
                      (lt.node == a || lt.node == q.neighbor(a, d))) {
                    dup = true;
                  }
                }
                if (dup) continue;
                links.push_back({a, d});
                if (mirror_l.is_faulty(a, d)) {
                  mirror_l.mark_healthy(a, d);
                } else {
                  mirror_l.mark_faulty(a, d);
                }
              }
            }
            oracle.apply(nodes, links);
            break;
          }
          default: {  // large batch: jump to an independent sample
            const auto next_f =
                fault::inject_uniform(q, rng.below(num / 4), rng);
            const auto next_l =
                fault::inject_links_uniform(q, rng.below(2 * dim), rng);
            std::vector<NodeId> nodes;
            for (NodeId a = 0; a < num; ++a) {
              if (next_f.is_faulty(a) != mirror_f.is_faulty(a)) {
                nodes.push_back(a);
              }
            }
            std::vector<EgsOracle::LinkToggle> links;
            for (const auto& [a, d] : mirror_l.faulty_links()) {
              if (!next_l.is_faulty(a, d)) links.push_back({a, d});
            }
            for (const auto& [a, d] : next_l.faulty_links()) {
              if (!mirror_l.is_faulty(a, d)) links.push_back({a, d});
            }
            oracle.apply(nodes, links);
            mirror_f = next_f;
            mirror_l = next_l;
            break;
          }
        }
        ASSERT_EQ(oracle.faults(), mirror_f);
        const EgsResult scratch = run_egs(q, mirror_f, mirror_l);
        ASSERT_EQ(oracle.public_view(), scratch.public_view)
            << "dim " << dim << " sequence " << s << " op " << op;
        ASSERT_EQ(oracle.self_view(), scratch.self_view)
            << "dim " << dim << " sequence " << s << " op " << op;
        for (NodeId a = 0; a < num; ++a) {
          ASSERT_EQ(oracle.in_n2(a), static_cast<bool>(scratch.in_n2[a]))
              << "dim " << dim << " sequence " << s << " op " << op
              << " node " << a;
        }
        // Enter/exit accounting: the counters track post-construction
        // moves only, so initial + enters must equal current + exits.
        std::uint64_t n2_now = 0;
        for (NodeId a = 0; a < num; ++a) n2_now += oracle.in_n2(a);
        ASSERT_EQ(initial_n2 + oracle.stats().n2_enters,
                  n2_now + oracle.stats().n2_exits)
            << "dim " << dim << " sequence " << s << " op " << op;
      }
    }
  }
}

}  // namespace
}  // namespace slcube::core
