#include "fault/link_fault_set.hpp"

#include <gtest/gtest.h>

#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace slcube::fault {
namespace {

TEST(LinkFaultSet, EmptyByDefault) {
  LinkFaultSet lf((topo::Hypercube(4)));
  EXPECT_TRUE(lf.empty());
  EXPECT_EQ(lf.count(), 0u);
  EXPECT_FALSE(lf.is_faulty(0, 0));
}

TEST(LinkFaultSet, SymmetricFromBothEndpoints) {
  const topo::Hypercube q(4);
  LinkFaultSet lf(q);
  // The Fig. 4 link: between 1000 and 1001, i.e. dimension 0.
  lf.mark_faulty(0b1000, 0);
  EXPECT_TRUE(lf.is_faulty(0b1000, 0));
  EXPECT_TRUE(lf.is_faulty(0b1001, 0));  // same link, other end
  EXPECT_FALSE(lf.is_faulty(0b1000, 1));
  EXPECT_EQ(lf.count(), 1u);
}

TEST(LinkFaultSet, MarkFromUpperEndpointCanonicalizes) {
  const topo::Hypercube q(3);
  LinkFaultSet lf(q);
  lf.mark_faulty(0b101, 2);  // link (001, 101) marked from the upper end
  EXPECT_TRUE(lf.is_faulty(0b001, 2));
  EXPECT_EQ(lf.count(), 1u);
  lf.mark_faulty(0b001, 2);  // same link from the lower end: no duplicate
  EXPECT_EQ(lf.count(), 1u);
}

TEST(LinkFaultSet, Repair) {
  const topo::Hypercube q(3);
  LinkFaultSet lf(q);
  lf.mark_faulty(0, 1);
  lf.mark_healthy(0b010, 1);  // repair via the other endpoint
  EXPECT_FALSE(lf.is_faulty(0, 1));
  EXPECT_TRUE(lf.empty());
}

TEST(LinkFaultSet, TouchesIdentifiesN2Membership) {
  const topo::Hypercube q(4);
  LinkFaultSet lf(q);
  lf.mark_faulty(0b1000, 0);
  EXPECT_TRUE(lf.touches(0b1000));
  EXPECT_TRUE(lf.touches(0b1001));
  EXPECT_FALSE(lf.touches(0b1010));
  EXPECT_FALSE(lf.touches(0b0000));
}

// A LinkFaultSet is only meaningful relative to one concrete cube, so
// the placeholder-cube default constructor is gone for good.
static_assert(!std::is_default_constructible_v<LinkFaultSet>);

TEST(LinkFaultSet, AdjacentCountsTrackBothEndpoints) {
  const topo::Hypercube q(4);
  LinkFaultSet lf(q);
  EXPECT_EQ(lf.adjacent_faulty(0b0000), 0u);
  lf.mark_faulty(0b0000, 0);
  lf.mark_faulty(0b0000, 1);
  EXPECT_EQ(lf.adjacent_faulty(0b0000), 2u);
  EXPECT_EQ(lf.adjacent_faulty(0b0001), 1u);
  EXPECT_EQ(lf.adjacent_faulty(0b0010), 1u);
  EXPECT_EQ(lf.adjacent_faulty(0b0011), 0u);
  lf.mark_healthy(0b0001, 0);  // repair via the other endpoint
  EXPECT_EQ(lf.adjacent_faulty(0b0000), 1u);
  EXPECT_EQ(lf.adjacent_faulty(0b0001), 0u);
  EXPECT_TRUE(lf.touches(0b0000));  // its dimension-1 link is still down
  EXPECT_FALSE(lf.touches(0b0001));
  EXPECT_TRUE(lf.touches(0b0010));
}

TEST(LinkFaultSet, DoubleMarkIsIdempotent) {
  const topo::Hypercube q(3);
  LinkFaultSet lf(q);
  lf.mark_faulty(0b000, 2);
  lf.mark_faulty(0b100, 2);  // same link from the other end: no recount
  EXPECT_EQ(lf.count(), 1u);
  EXPECT_EQ(lf.adjacent_faulty(0b000), 1u);
  EXPECT_EQ(lf.adjacent_faulty(0b100), 1u);
  lf.mark_healthy(0b000, 2);
  lf.mark_healthy(0b000, 2);  // double repair: counts must not underflow
  EXPECT_EQ(lf.adjacent_faulty(0b000), 0u);
  EXPECT_EQ(lf.adjacent_faulty(0b100), 0u);
  EXPECT_FALSE(lf.touches(0b000));
}

using Link = std::pair<NodeId, Dim>;

/// Every query of `lf` against the reference set of canonical links.
void expect_matches(const LinkFaultSet& lf, const std::set<Link>& ref) {
  const topo::Hypercube& q = lf.cube();
  ASSERT_EQ(lf.count(), ref.size());
  ASSERT_EQ(lf.empty(), ref.empty());
  ASSERT_EQ(lf.faulty_links(), std::vector<Link>(ref.begin(), ref.end()));
  for (NodeId a = 0; a < q.num_nodes(); ++a) {
    unsigned adjacent = 0;
    for (Dim d = 0; d < q.dimension(); ++d) {
      const bool want = ref.contains({a & ~bits::unit(d), d});
      ASSERT_EQ(lf.is_faulty(a, d), want) << "node " << a << " dim " << d;
      adjacent += want ? 1u : 0u;
    }
    ASSERT_EQ(lf.adjacent_faulty(a), adjacent) << "node " << a;
    ASSERT_EQ(lf.touches(a), adjacent > 0) << "node " << a;
  }
}

// Random mark/repair sequences on Q1-Q10, checked after every step. Most
// operations land on the links of a few hub nodes, so nodes collect
// several faulty links and then lose them one at a time: a repair that
// leaves its endpoint with another faulty link must keep that node's bit.
// Links are named from either endpoint, and a third of the steps repeat
// the previous operation (double marks, double repairs).
TEST(LinkFaultSet, MatchesReferenceSetUnderRandomMarksAndRepairs) {
  Xoshiro256ss rng(0x11f5);
  unsigned kept_touch = 0;
  for (unsigned n = 1; n <= 10; ++n) {
    const topo::Hypercube q(n);
    LinkFaultSet lf(q);
    std::set<Link> ref;
    std::vector<NodeId> hubs;
    for (int i = 0; i < 3; ++i) {
      hubs.push_back(static_cast<NodeId>(rng.below(q.num_nodes())));
    }
    const auto ref_touches = [&](NodeId x) {
      for (Dim e = 0; e < n; ++e) {
        if (ref.contains({x & ~bits::unit(e), e})) return true;
      }
      return false;
    };
    NodeId a = 0;
    Dim d = 0;
    bool fail = true;
    for (int step = 0; step < 300; ++step) {
      if (step == 0 || rng.below(3) != 0) {
        a = rng.below(4) == 0 ? static_cast<NodeId>(rng.below(q.num_nodes()))
                              : hubs[rng.below(hubs.size())];
        d = static_cast<Dim>(rng.below(n));
        if (rng.below(2) == 0) a = q.neighbor(a, d);
        // Fill up, then drain: repairs dominate the second half.
        fail = rng.below(8) < (step < 150 ? 5u : 2u);
      }
      const Link link{a & ~bits::unit(d), d};
      if (fail) {
        lf.mark_faulty(a, d);
        ref.insert(link);
      } else {
        lf.mark_healthy(a, d);
        if (ref.erase(link) > 0) {
          kept_touch += ref_touches(a) ? 1u : 0u;
          kept_touch += ref_touches(q.neighbor(a, d)) ? 1u : 0u;
        }
      }
      expect_matches(lf, ref);
      if (HasFatalFailure()) {
        FAIL() << "Q" << n << " step " << step;
      }
    }
  }
  EXPECT_GT(kept_touch, 100u);
}

TEST(LinkFaultSet, FaultyLinksSortedCanonical) {
  const topo::Hypercube q(4);
  LinkFaultSet lf(q);
  lf.mark_faulty(0b1001, 1);  // canonical lower end 1001 (bit 1 clear)
  lf.mark_faulty(0b0111, 3);  // canonical lower end 0111
  const auto links = lf.faulty_links();
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(links[0], (std::pair<NodeId, Dim>{0b0111, 3u}));
  EXPECT_EQ(links[1], (std::pair<NodeId, Dim>{0b1001, 1u}));
}

}  // namespace
}  // namespace slcube::fault
