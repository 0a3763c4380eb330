#include "core/safety.hpp"

#include <algorithm>
#include <array>
#include <cstring>

namespace slcube::core {

namespace {

/// kLaneOf[v] is the count record of one neighbor at level v, for every
/// value a packed slot can hold. Values from 8 · kMaxCountWords up fall
/// past every record; like n - 1, n and the rest above n, they never
/// decide (safety.hpp).
constexpr auto kLaneOf = [] {
  std::array<std::array<std::uint64_t, kMaxCountWords>,
             PackedLevels::kSlotMask + 1>
      lane{};
  for (unsigned v = 0; v < 8 * kMaxCountWords; ++v) {
    lane[v][v / 8] = count_lane(static_cast<Level>(v));
  }
  return lane;
}();

/// Definition 1 over a byte-per-node table: a's n neighbor levels
/// gathered into a count record, then level_from_counts. test_safety and
/// test_packed_levels pin this equal to sort + node_status.
Level implied_by_counts(unsigned n, NodeId a, const Level* levels) {
  std::uint64_t record[kMaxCountWords] = {};
  for (Dim d = 0; d < n; ++d) {
    const auto& lane = kLaneOf[levels[bits::flip(a, d)]];
    for (unsigned w = 0; w < kMaxCountWords; ++w) record[w] += lane[w];
  }
  return level_from_counts(record, n);
}

/// is_consistent walks the nodes in blocks of this many consecutive ids.
/// Q1–Q5 fill only the first N lanes of their one block; the lane swaps
/// below move all 64, and a node's partner j ^ 2^d (d < n) stays below N.
constexpr unsigned kBlock = 64;

/// out[j] = in[j ^ 2^kDim] over one block, for kDim < 6: the block's
/// dimension-kDim neighbors that lie inside it, moved as eight 64-bit
/// words. Below kDim = 3 a lane's partner shares its word, and one shift
/// pair swaps every aligned group of 2^kDim bytes (under either byte
/// order); from kDim = 3 up whole words trade places. With the dimension
/// a template argument GCC keeps the swap in 16-byte vectors, and the
/// counter loop reloads them without a store-forwarding stall.
template <Dim kDim>
void swap_lanes(const Level* in, Level* out) {
  static_assert(kDim < 6, "2^kDim lanes must fit in one block");
  std::uint64_t w[kBlock / 8];
  std::uint64_t swapped[kBlock / 8];
  std::memcpy(w, in, kBlock);
  for (unsigned k = 0; k < kBlock / 8; ++k) {
    if constexpr (kDim < 3) {
      constexpr std::array<std::uint64_t, 3> kLowGroups = {
          0x00FF00FF00FF00FFull, 0x0000FFFF0000FFFFull,
          0x00000000FFFFFFFFull};
      constexpr unsigned kShift = 8u << kDim;
      constexpr std::uint64_t kLow = kLowGroups[kDim];
      swapped[k] = ((w[k] >> kShift) & kLow) | ((w[k] & kLow) << kShift);
    } else {
      swapped[k] = w[k ^ (1u << (kDim - 3))];
    }
  }
  std::memcpy(out, swapped, kBlock);
}

void swap_lanes(const Level* in, Level* out, Dim d) {
  switch (d) {
    case 0: return swap_lanes<0>(in, out);
    case 1: return swap_lanes<1>(in, out);
    case 2: return swap_lanes<2>(in, out);
    case 3: return swap_lanes<3>(in, out);
    case 4: return swap_lanes<4>(in, out);
    default: return swap_lanes<5>(in, out);
  }
}

/// Per-node counters of one block over its neighbors' levels (DESIGN.md,
/// "Peeling build"): `below` counts neighbors below n, `zeros` those at
/// 0, and `least` holds the least level in 1..n-1 among them (kNone, which
/// exceeds every count, if there is none).
struct BlockCounts {
  static constexpr Level kNone = PackedLevels::kSlotMask + 1;
  // Plain arrays here and in the pass below: an unoptimized build indexes
  // them inline, which keeps the exhaustive small-cube tests affordable
  // in Debug and sanitizer builds.
  Level below[kBlock] = {};
  Level zeros[kBlock] = {};
  Level least[kBlock];

  BlockCounts() { std::memset(least, kNone, sizeof least); }

  /// Fold one dimension in: nb[j] is the level of lane j's neighbor.
  /// Branch-free, so GCC vectorizes it; v - 1 wraps 0 past n - 1, which
  /// leaves one compare for "v in 1..n-1".
  void add(const Level* nb, unsigned lanes, Level n) {
    for (unsigned j = 0; j < lanes; ++j) {
      const Level v = nb[j];
      below[j] = static_cast<Level>(below[j] + (v < n));
      zeros[j] = static_cast<Level>(zeros[j] + (v == 0));
      const bool mid = static_cast<Level>(v - 1) < static_cast<Level>(n - 1);
      least[j] = std::min(least[j], mid ? v : kNone);
    }
  }

  /// need[j] = 1 unless the quick rule clears lane j: stored at n, at
  /// most one neighbor at 0, and every other below-n neighbor at a level
  /// >= below - 1. Sorting the below-n levels d_0 <= ... <= d_{m-1} then
  /// gives d_i >= i, and the rest sit at >= n, so Definition 1 gives n.
  void needs_full_test(const Level* stored, unsigned lanes, Level n,
                       Level* need) const {
    for (unsigned j = 0; j < lanes; ++j) {
      need[j] = static_cast<Level>(
          (stored[j] != n) | (zeros[j] > 1) | (below[j] > least[j] + 1));
    }
  }
};

}  // namespace

std::vector<NodeId> SafetyLevels::safe_nodes() const {
  std::vector<NodeId> out;
  for (NodeId a = 0; a < packed_.size(); ++a) {
    if (packed_.get(a) == n_) out.push_back(a);
  }
  return out;
}

std::vector<Level> SafetyLevels::unpack() const {
  constexpr unsigned kPerWord = PackedLevels::kLevelsPerWord;
  std::vector<Level> out(size());
  const std::span<const std::uint64_t> words = packed_.words();
  const std::size_t full = out.size() / kPerWord;
  for (std::size_t w = 0; w < full; ++w) {
    Level* slot = out.data() + w * kPerWord;
    for (unsigned s = 0; s < kPerWord; ++s) {
      slot[s] = static_cast<Level>(
          (words[w] >> (PackedLevels::kBitsPerLevel * s)) &
          PackedLevels::kSlotMask);
    }
  }
  for (std::size_t a = full * kPerWord; a < out.size(); ++a) {
    out[a] = packed_.get(a);
  }
  return out;
}

Level node_status(std::span<const Level> sorted, unsigned n) {
  SLC_EXPECT(sorted.size() == n);
  for (unsigned i = 0; i < n; ++i) {
    if (sorted[i] < i) {
      // Sortedness forces equality at the minimal failing index: the
      // previous element is >= i-1 and <= sorted[i] < i.
      SLC_ASSERT(sorted[i] == i - 1);
      return static_cast<Level>(i);
    }
  }
  return static_cast<Level>(n);
}

Level implied_level(const topo::Hypercube& cube,
                    const fault::FaultSet& faults,
                    std::span<const Level> levels, NodeId a) {
  SLC_EXPECT(faults.is_healthy(a));
  SLC_ASSERT(levels.size() == cube.num_nodes());
  return implied_by_counts(cube.dimension(), a, levels.data());
}

bool is_consistent(const topo::Hypercube& cube, const fault::FaultSet& faults,
                   const SafetyLevels& levels) {
  SLC_EXPECT(levels.size() == cube.num_nodes());
  const auto n = static_cast<Level>(cube.dimension());
  const auto num_nodes = static_cast<NodeId>(cube.num_nodes());
  const std::vector<Level> lv = levels.unpack();
  // Faulty nodes first: each must hold 0. The block pass below then
  // skips them, so a faulty node stored at n cannot pass the quick rule.
  bool faulty_zero = true;
  faults.for_each_faulty([&](NodeId a) { faulty_zero &= lv[a] == 0; });
  if (!faulty_zero) return false;

  // The dimension-d neighbors of block [a0, a0 + 64) are the block at
  // a0 ^ 2^d when d >= 6, and a lane swap of the block itself below.
  // Only the first min(N, 64) lanes of a block are nodes; Q1–Q5 run on
  // a copy of their one block padded to 64 lanes for the swaps.
  const auto lanes = static_cast<unsigned>(std::min<NodeId>(num_nodes, kBlock));
  Level padded[kBlock] = {};
  std::copy_n(lv.begin(), lanes, padded);
  const Level* table = lanes < kBlock ? padded : lv.data();
  Level swapped[kBlock];
  Level need[kBlock];
  for (NodeId a0 = 0; a0 < num_nodes; a0 += kBlock) {
    const Level* block = table + a0;
    BlockCounts counts;
    for (Dim d = 0; d < n; ++d) {
      if (bits::unit(d) < kBlock) {
        swap_lanes(block, swapped, d);
        counts.add(swapped, lanes, n);
      } else {
        counts.add(table + (a0 ^ bits::unit(d)), lanes, n);
      }
    }
    // The full test for every node the quick rule leaves: stored below
    // or above n, or safe with neighbors too deep for the rule.
    counts.needs_full_test(block, lanes, n, need);
    for (unsigned j = 0; j < lanes; ++j) {
      const NodeId a = a0 + j;
      if (need[j] == 0 || faults.is_faulty(a)) continue;
      if (block[j] != implied_by_counts(n, a, lv.data())) return false;
    }
  }
  return true;
}

}  // namespace slcube::core
