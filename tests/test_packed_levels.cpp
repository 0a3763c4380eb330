// The bit-packed safety-table storage (PackedLevels) and its two hard
// guarantees:
//
//  * Representation — 5 bits per level, 12 per u64 word, spare and tail
//    bits always zero, so word-wise operator== is content equality and
//    packed_digest() covers the exact stored bytes.
//
//  * Bit-identity — the packed table threaded through compute_safety_levels
//    and the incremental SafetyOracle is word-for-word identical to a
//    from-scratch fixed point on every previously supported dim (3–12),
//    across randomized fault sets and add/remove/batch interleavings.
#include "core/packed_levels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/global_status.hpp"
#include "core/safety.hpp"
#include "core/safety_oracle.hpp"
#include "exp/sweep_engine.hpp"
#include "fault/fault_set.hpp"

namespace slcube::core {
namespace {

TEST(PackedLevels, GetSetRoundTripAcrossWordBoundaries) {
  PackedLevels p(40, 0);
  // 40 slots span 4 words; write a distinct 5-bit pattern everywhere.
  for (NodeId i = 0; i < 40; ++i) {
    p.set(i, static_cast<std::uint8_t>((i * 7 + 3) % 21));
  }
  for (NodeId i = 0; i < 40; ++i) EXPECT_EQ(p.get(i), (i * 7 + 3) % 21);
  // Word-boundary slots specifically (11|12 and 23|24).
  p.set(11, 31);
  p.set(12, 1);
  EXPECT_EQ(p.get(11), 31u);
  EXPECT_EQ(p.get(12), 1u);
  EXPECT_EQ(p.get(10), (10 * 7 + 3) % 21);
  EXPECT_EQ(p.get(13), (13 * 7 + 3) % 21);
}

TEST(PackedLevels, SpareAndTailBitsStayZero) {
  // 13 slots = 1 full word + 1 slot of the second; fill with the max
  // level and check the invariant bits directly.
  PackedLevels p(13, 31);
  ASSERT_EQ(p.words().size(), 2u);
  // Word 0: 12 slots of 0b11111 = low 60 bits set, top 4 zero.
  EXPECT_EQ(p.words()[0], (std::uint64_t{1} << 60) - 1);
  // Word 1: slot 12 only; slots 13.. are tail and must be zero.
  EXPECT_EQ(p.words()[1], std::uint64_t{31});
  p.set(12, 5);
  EXPECT_EQ(p.words()[1], std::uint64_t{5});
}

TEST(PackedLevels, WordEqualityIsContentEquality) {
  PackedLevels a(30, 7);
  PackedLevels b(30, 7);
  EXPECT_TRUE(a == b);
  b.set(29, 8);
  EXPECT_FALSE(a == b);
  b.set(29, 7);
  EXPECT_TRUE(a == b);
}

TEST(PackedLevels, DigestSeesEverySlotAndTheSize) {
  PackedLevels a(24, 3);
  const std::uint64_t base = packed_digest(a);
  for (NodeId i = 0; i < 24; ++i) {
    PackedLevels c = a;
    c.set(i, 4);
    EXPECT_NE(packed_digest(c), base) << "slot " << i << " not covered";
  }
  EXPECT_NE(packed_digest(PackedLevels(23, 3)), base);
}

TEST(PackedLevels, StorageIsFiveBitsPerLevel) {
  const PackedLevels p(1u << 20, 0);
  // ceil(2^20 / 12) words * 8 bytes ≈ 0.667 bytes/node.
  EXPECT_EQ(p.storage_bytes(), ((1u << 20) + 11) / 12 * 8);
  EXPECT_LT(static_cast<double>(p.storage_bytes()) / (1u << 20), 0.67);
}

/// A randomized fault set of `count` distinct victims.
fault::FaultSet random_faults(const topo::Hypercube& cube, std::uint64_t count,
                              Xoshiro256ss& rng) {
  fault::FaultSet f(cube.num_nodes());
  while (f.count() < count) {
    const auto v = static_cast<NodeId>(rng.below(cube.num_nodes()));
    if (f.is_healthy(v)) f.mark_faulty(v);
  }
  return f;
}

TEST(PackedBitIdentity, ScratchTablesMatchUnpackedKernelDims3To12) {
  // The packed fixed point must agree, level by level, with what the
  // unpacked NODE_STATUS kernel implies at every healthy node — and the
  // unpack() of the table must be the same sequence the packed getters
  // return.
  for (unsigned dim = 3; dim <= 12; ++dim) {
    const topo::Hypercube cube(dim);
    auto rng = exp::substream(0xB17'1DE27, dim, 0);
    for (int rep = 0; rep < 3; ++rep) {
      const auto faults =
          random_faults(cube, rng.below(cube.num_nodes() / 4), rng);
      const SafetyLevels levels = compute_safety_levels(cube, faults);
      ASSERT_TRUE(is_consistent(cube, faults, levels));
      const std::vector<Level> flat = levels.unpack();
      ASSERT_EQ(flat.size(), cube.num_nodes());
      for (NodeId a = 0; a < cube.num_nodes(); ++a) {
        EXPECT_EQ(flat[a], levels[a]);
        EXPECT_EQ(levels.packed().get(a), levels[a]);
      }
    }
  }
}

TEST(PackedBitIdentity, OracleInterleavingsMatchScratchDims3To12) {
  // Randomized add/remove/batch interleavings: after every operation
  // the oracle's packed words must equal a from-scratch fixed point —
  // not just level-equal, word-for-word equal (tail invariant included).
  for (unsigned dim = 3; dim <= 12; ++dim) {
    const topo::Hypercube cube(dim);
    auto rng = exp::substream(0x0'0AC1E, dim, 1);
    fault::FaultSet f(cube.num_nodes());
    SafetyOracle oracle(cube);
    const unsigned ops = dim <= 8 ? 40 : 16;
    for (unsigned op = 0; op < ops; ++op) {
      const std::uint64_t roll = rng.below(10);
      if (roll < 5 || f.count() == 0) {
        NodeId v;
        do {
          v = static_cast<NodeId>(rng.below(cube.num_nodes()));
        } while (f.is_faulty(v));
        f.mark_faulty(v);
        oracle.add_fault(v);
      } else if (roll < 8) {
        const auto faulty = f.faulty_nodes();
        const NodeId back = faulty[rng.below(faulty.size())];
        f.mark_healthy(back);
        oracle.remove_fault(back);
      } else {
        // Jump to an unrelated fault set in one large apply() batch.
        const fault::FaultSet next =
            random_faults(cube, rng.below(cube.num_nodes() / 8), rng);
        std::vector<NodeId> additions;
        std::vector<NodeId> removals;
        for (NodeId a = 0; a < cube.num_nodes(); ++a) {
          if (next.is_faulty(a) != f.is_faulty(a)) {
            (next.is_faulty(a) ? additions : removals).push_back(a);
          }
        }
        oracle.apply(additions, removals);
        f = next;
      }
      const SafetyLevels scratch = compute_safety_levels(cube, f);
      ASSERT_TRUE(oracle.levels().packed() == scratch.packed())
          << "dim " << dim << " op " << op << " faults " << f.count();
      ASSERT_EQ(packed_digest(oracle.levels().packed()),
                packed_digest(scratch.packed()));
    }
  }
}

TEST(PackedBitIdentity, CountingKernelMatchesSortedNodeStatus) {
  // implied_level() now counts level occurrences instead of sorting the
  // neighborhood; both must realize the same NODE_STATUS map. Compare
  // against an explicit gather-sort-scan reference on random tables.
  const topo::Hypercube cube(7);
  auto rng = exp::substream(0x5057A7, 7, 3);
  for (int rep = 0; rep < 50; ++rep) {
    const auto faults = random_faults(cube, rng.below(40), rng);
    SafetyLevels table(cube.dimension(), cube.num_nodes(), 0);
    for (NodeId a = 0; a < cube.num_nodes(); ++a) {
      table.set(a, faults.is_faulty(a)
                       ? 0
                       : static_cast<Level>(rng.below(cube.dimension() + 1)));
    }
    for (NodeId a = 0; a < cube.num_nodes(); ++a) {
      if (faults.is_faulty(a)) continue;
      std::vector<Level> sorted;
      cube.for_each_neighbor(
          a, [&](Dim, NodeId b) { sorted.push_back(table[b]); });
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(implied_level(cube, faults, table, a),
                node_status({sorted.data(), sorted.size()},
                            cube.dimension()));
    }
  }
}

}  // namespace
}  // namespace slcube::core
