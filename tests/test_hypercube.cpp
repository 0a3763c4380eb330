#include "topology/hypercube.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace slcube::topo {
namespace {

TEST(Hypercube, SizesAndDegree) {
  for (unsigned n = 1; n <= 10; ++n) {
    const Hypercube q(n);
    EXPECT_EQ(q.dimension(), n);
    EXPECT_EQ(q.num_nodes(), std::uint64_t{1} << n);
    EXPECT_EQ(q.degree(), n);
  }
}

TEST(Hypercube, Contains) {
  const Hypercube q(3);
  EXPECT_TRUE(q.contains(0));
  EXPECT_TRUE(q.contains(7));
  EXPECT_FALSE(q.contains(8));
}

TEST(Hypercube, NeighborFlipsOneBit) {
  const Hypercube q(4);
  for (NodeId a = 0; a < q.num_nodes(); ++a) {
    for (Dim d = 0; d < 4; ++d) {
      const NodeId b = q.neighbor(a, d);
      EXPECT_EQ(q.distance(a, b), 1u);
      EXPECT_EQ(a ^ b, bits::unit(d));
      EXPECT_EQ(q.neighbor(b, d), a);  // symmetric edge
    }
  }
}

TEST(Hypercube, NeighborsAreDistinct) {
  const Hypercube q(5);
  for (NodeId a = 0; a < q.num_nodes(); ++a) {
    std::set<NodeId> nbrs;
    q.for_each_neighbor(a, [&](Dim, NodeId b) { nbrs.insert(b); });
    EXPECT_EQ(nbrs.size(), 5u);
    EXPECT_FALSE(nbrs.contains(a));
  }
}

TEST(Hypercube, DistanceIsHamming) {
  const Hypercube q(4);
  EXPECT_EQ(q.distance(0b0000, 0b1111), 4u);
  EXPECT_EQ(q.distance(0b1010, 0b1000), 1u);
  EXPECT_EQ(q.distance(0b0110, 0b0110), 0u);
}

TEST(Hypercube, NavigationVectorMarksPreferredDims) {
  const Hypercube q(4);
  const auto nav = q.navigation_vector(0b1110, 0b0001);
  EXPECT_EQ(nav, 0b1111u);
  EXPECT_EQ(bits::popcount(nav), q.distance(0b1110, 0b0001));
}

TEST(Hypercube, PreferredNeighborsReduceDistance) {
  const Hypercube q(6);
  const NodeId s = 0b101010, d = 0b010110;
  const auto nav = q.navigation_vector(s, d);
  unsigned count = 0;
  q.for_each_preferred(s, nav, [&](Dim, NodeId b) {
    EXPECT_EQ(q.distance(b, d), q.distance(s, d) - 1);
    ++count;
  });
  EXPECT_EQ(count, q.distance(s, d));
}

TEST(Hypercube, SpareNeighborsIncreaseDistance) {
  const Hypercube q(6);
  const NodeId s = 0b101010, d = 0b010110;
  const auto nav = q.navigation_vector(s, d);
  unsigned count = 0;
  q.for_each_spare(s, nav, [&](Dim, NodeId b) {
    EXPECT_EQ(q.distance(b, d), q.distance(s, d) + 1);
    ++count;
  });
  EXPECT_EQ(count, q.dimension() - q.distance(s, d));
}

TEST(Hypercube, PreferredPlusSpareIsAllNeighbors) {
  const Hypercube q(5);
  for (NodeId s = 0; s < q.num_nodes(); s += 3) {
    for (NodeId d = 0; d < q.num_nodes(); d += 5) {
      const auto nav = q.navigation_vector(s, d);
      std::set<NodeId> together;
      q.for_each_preferred(s, nav,
                           [&](Dim, NodeId b) { together.insert(b); });
      q.for_each_spare(s, nav, [&](Dim, NodeId b) { together.insert(b); });
      EXPECT_EQ(together.size(), q.dimension());
    }
  }
}

// any_preferred / any_spare visit the same neighbors in the same order
// as the for_each forms and stop at the first that satisfies them.
TEST(Hypercube, AnyNeighborStopsAtItsFirstWitness) {
  const Hypercube q(6);
  const NodeId s = 0b101010, d = 0b010110;
  const auto nav = q.navigation_vector(s, d);
  for (const bool preferred : {true, false}) {
    std::vector<Dim> all;
    const auto collect = [&](Dim dim, NodeId b) {
      EXPECT_EQ(b, q.neighbor(s, dim));
      all.push_back(dim);
    };
    if (preferred) {
      q.for_each_preferred(s, nav, collect);
    } else {
      q.for_each_spare(s, nav, collect);
    }
    ASSERT_GE(all.size(), 2u);
    const auto any = [&](auto&& pred) {
      return preferred ? q.any_preferred(s, nav, pred)
                       : q.any_spare(s, nav, pred);
    };
    std::vector<Dim> seen;
    EXPECT_FALSE(any([&](Dim dim, NodeId) {
      seen.push_back(dim);
      return false;
    }));
    EXPECT_EQ(seen, all);  // no witness: every neighbor, in order
    seen.clear();
    EXPECT_TRUE(any([&](Dim dim, NodeId) {
      seen.push_back(dim);
      return dim == all[1];
    }));
    EXPECT_EQ(seen, (std::vector<Dim>{all[0], all[1]}));
  }
}

TEST(Hypercube, AllNodesEnumeratesEverything) {
  const Hypercube q(4);
  const auto all = q.all_nodes();
  ASSERT_EQ(all.size(), 16u);
  for (NodeId i = 0; i < 16; ++i) EXPECT_EQ(all[i], i);
}

TEST(Hypercube, Equality) {
  EXPECT_EQ(Hypercube(3), Hypercube(3));
  EXPECT_NE(Hypercube(3), Hypercube(4));
}

/// Property sweep: Q_n is vertex-transitive and bipartite; parity of the
/// label's popcount 2-colors it.
class HypercubeDims : public ::testing::TestWithParam<unsigned> {};

TEST_P(HypercubeDims, BipartiteByParity) {
  const Hypercube q(GetParam());
  for (NodeId a = 0; a < q.num_nodes(); ++a) {
    q.for_each_neighbor(a, [&](Dim, NodeId b) {
      EXPECT_NE(bits::popcount(a) % 2, bits::popcount(b) % 2);
    });
  }
}

TEST_P(HypercubeDims, EdgeCountMatchesFormula) {
  const Hypercube q(GetParam());
  std::uint64_t half_edges = 0;
  for (NodeId a = 0; a < q.num_nodes(); ++a) {
    q.for_each_neighbor(a, [&](Dim, NodeId) { ++half_edges; });
  }
  EXPECT_EQ(half_edges, q.num_nodes() * q.dimension());
}

INSTANTIATE_TEST_SUITE_P(Dims1To8, HypercubeDims,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace slcube::topo
