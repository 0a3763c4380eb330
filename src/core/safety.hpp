// Safety levels (Definition 1 of the paper).
//
// The safety level of a faulty node is 0. For a nonfaulty node a of an
// n-cube, let (S0, S1, ..., S_{n-1}) be the *nondecreasing* sequence of
// its neighbors' levels. Then
//
//     S(a) = n                     if (S0,...,S_{n-1}) >= (0,1,...,n-1)
//     S(a) = k                     if (S0,...,S_{k-1}) >= (0,...,k-1)
//                                  and S_k = k - 1.
//
// Both cases collapse to one kernel: S(a) = min{ i : S_i < i }, or n when
// no such index exists — at the minimal failing index i the sortedness of
// the sequence forces S_i = i - 1 exactly, which node_status() asserts.
//
// Theorem 1: for every fault set the consistent assignment exists and is
// unique; compute_safety_levels() (global_status.hpp) runs the stage-by-
// stage existence construction from the proof, and is_consistent() is the
// Definition-1 predicate used to verify any candidate assignment.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/packed_levels.hpp"
#include "fault/fault_set.hpp"
#include "topology/hypercube.hpp"

namespace slcube::core {

/// A safety level: 0 (faulty) .. n (safe). uint8_t bounds n at 255, far
/// above Hypercube::kMaxDimension.
using Level = std::uint8_t;

// Compile-time width guards for the packed representation and the node/
// mask arithmetic it leans on. A level is at most kMaxDimension, which
// must fit a 5-bit slot; node ids and navigation vectors are 32-bit, so
// the dimension must stay below 32 for `1 << dim`-style mask math to be
// safe everywhere (bitops.hpp works in unsigned 32-bit words).
static_assert(topo::Hypercube::kMaxDimension <= PackedLevels::kSlotMask,
              "a safety level must fit a packed 5-bit slot");
static_assert(topo::Hypercube::kMaxDimension < 32,
              "NodeId and navigation-vector mask math is 32-bit");

/// Safety levels for every node of one cube, indexed by NodeId.
///
/// Storage is the bit-packed PackedLevels (5 bits per level, 12 per
/// 64-bit word): every stored table — the scratch build, GS's result, the
/// incremental oracles' views, routing, the serving snapshots — shares
/// this one layer. Reads return Level by value; writes go through set()
/// or the WriteRef proxy that `levels[a] = k` resolves to.
class SafetyLevels {
 public:
  /// Write proxy returned by the non-const operator[]; converts to Level
  /// on read and forwards assignment to the packed word.
  class WriteRef {
   public:
    operator Level() const noexcept { return p_->get(a_); }  // NOLINT
    WriteRef& operator=(Level v) noexcept {
      p_->set(a_, v);
      return *this;
    }
    WriteRef& operator=(const WriteRef& o) noexcept {
      return *this = static_cast<Level>(o);
    }

   private:
    friend class SafetyLevels;
    WriteRef(PackedLevels* p, NodeId a) noexcept : p_(p), a_(a) {}
    PackedLevels* p_;
    NodeId a_;
  };

  SafetyLevels() = default;
  SafetyLevels(unsigned dimension, std::uint64_t num_nodes, Level fill)
      : n_(dimension), packed_(num_nodes, fill) {}

  [[nodiscard]] unsigned dimension() const noexcept { return n_; }
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(packed_.size());
  }

  [[nodiscard]] Level operator[](NodeId a) const noexcept {
    SLC_ASSERT(a < packed_.size());
    return packed_.get(a);
  }
  [[nodiscard]] WriteRef operator[](NodeId a) noexcept {
    SLC_ASSERT(a < packed_.size());
    return WriteRef(&packed_, a);
  }
  void set(NodeId a, Level v) noexcept {
    SLC_ASSERT(a < packed_.size());
    packed_.set(a, v);
  }

  /// A node is *safe* iff its level is n (the maximum).
  [[nodiscard]] bool is_safe(NodeId a) const noexcept {
    return (*this)[a] == n_;
  }

  /// Node ids of all safe (level n) nodes.
  [[nodiscard]] std::vector<NodeId> safe_nodes() const;

  /// The shared packed storage (word loads for bulk readers/writers).
  [[nodiscard]] const PackedLevels& packed() const noexcept { return packed_; }
  [[nodiscard]] PackedLevels& packed() noexcept { return packed_; }

  /// Byte-per-level copy, decoded a packed word at a time: is_consistent
  /// reads it, SafetyOracle computes on it, and so do tests and
  /// reporting. O(N) bytes.
  [[nodiscard]] std::vector<Level> unpack() const;

  friend bool operator==(const SafetyLevels&, const SafetyLevels&) = default;

 private:
  unsigned n_ = 0;
  PackedLevels packed_;
};

/// The NODE_STATUS kernel: level implied by a *sorted nondecreasing*
/// sequence of `n` neighbor levels.
[[nodiscard]] Level node_status(std::span<const Level> sorted, unsigned n);

// Definition 1 in counting form. S_i < i iff at least i + 1 neighbors sit
// at a level <= i - 1, so, with t = i - 1, a node's level is the first
// t + 1 (t = 0..n-2) at which at_most(t), its neighbors at a level <= t,
// reaches t + 2, and n if there is none. A *count record* holds a node's
// neighbors per level: lane t, byte t % 8 of word t / 8 read as a number
// (so byte order does not matter), counts the neighbors at level t. Only
// lanes 0..n-2 can decide: a crossing at t >= n - 1 needs n + 1
// neighbors, so a record may count anything in its higher lanes —
// levels n - 1 and n, or a stored value above n.

/// Words in a count record: ceil((n - 1) / 8), so 0 at Q1, where no
/// level decides.
[[nodiscard]] constexpr unsigned count_words(unsigned n) noexcept {
  return (n + 6) / 8;
}
inline constexpr unsigned kMaxCountWords =
    count_words(topo::Hypercube::kMaxDimension);

/// One neighbor at level `v`: add this to word v / 8 of a record.
[[nodiscard]] constexpr std::uint64_t count_lane(Level v) noexcept {
  return std::uint64_t{1} << (8 * (v % 8));
}

namespace detail {
inline constexpr std::uint64_t kEveryLane = 0x0101010101010101;
/// Byte k of word w is 0x80 - (8w + k + 2): added to at_most(8w + k),
/// which is at most n, it sets the byte's high bit iff the crossing is
/// reached there, and never carries into the next byte.
inline constexpr auto kCrossing = [] {
  std::array<std::uint64_t, kMaxCountWords> words{};
  for (unsigned w = 0; w < kMaxCountWords; ++w) {
    for (unsigned k = 0; k < 8; ++k) {
      words[w] |= std::uint64_t{0x80 - (8 * w + k + 2)} << (8 * k);
    }
  }
  return words;
}();
}  // namespace detail

/// The level a count record implies (count_words(n) words, at most n
/// neighbors in all): one multiply per word turns its lanes into prefix
/// sums, the lower words' total is added to every lane, and one SWAR add
/// against the thresholds finds the first crossing.
[[nodiscard]] inline Level level_from_counts(const std::uint64_t* record,
                                             unsigned n) noexcept {
  std::uint64_t below = 0;  // the lower words' total, in every lane
  for (unsigned w = 0; w < count_words(n); ++w) {
    const std::uint64_t at_most = record[w] * detail::kEveryLane + below;
    const std::uint64_t hit =
        (at_most + detail::kCrossing[w]) & (detail::kEveryLane << 7);
    if (hit != 0) {
      const auto lane = static_cast<unsigned>(std::countr_zero(hit)) / 8;
      return static_cast<Level>(8 * w + lane + 1);
    }
    below = (at_most >> 56) * detail::kEveryLane;
  }
  return static_cast<Level>(n);
}

/// Level Definition 1 implies for node `a` given its neighbors' current
/// levels, one byte per node: the n neighbor levels gathered into a count
/// record, then level_from_counts — equivalent to gather + sort +
/// node_status, without the sort. `a` must be healthy. A neighbor may
/// hold any value a packed slot can (0..31); one above n counts as n. The
/// GS rounds and is_consistent's full test compute this way; the oracles'
/// cascades keep each node's record and call level_from_counts directly.
[[nodiscard]] Level implied_level(const topo::Hypercube& cube,
                                  const fault::FaultSet& faults,
                                  std::span<const Level> levels, NodeId a);

/// Definition-1 predicate: does `levels` satisfy the safety-level
/// condition at every node (faulty nodes 0, healthy nodes equal to their
/// implied level)? Exact at every node, in one pass over an unpack()ed
/// byte copy (N bytes, freed on return): faulty nodes are checked for 0,
/// then blocks of 64 consecutive ids count, per node, the neighbors below
/// n, those at 0, and the least nonzero level below n. A quick rule on
/// those three counts clears most safe nodes; every other node gets the
/// full counting test of implied_level (DESIGN.md, "Peeling build").
[[nodiscard]] bool is_consistent(const topo::Hypercube& cube,
                                 const fault::FaultSet& faults,
                                 const SafetyLevels& levels);

}  // namespace slcube::core
