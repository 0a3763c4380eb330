// The binary n-cube Q_n (Section 2.1 of the paper).
//
// Nodes are labeled 0 .. 2^n - 1; two nodes are adjacent iff their labels
// differ in exactly one bit. Bit i is "dimension i", and a ⊕ e^i — here
// `neighbor(a, i)` — is a's neighbor along dimension i. The Hamming
// distance H(s, d) = |s ⊕ d| is the graph distance, the bits set in s ⊕ d
// are the *preferred dimensions*, and the clear bits are the *spare
// dimensions* of the pair (s, d).
//
// The class is a trivially copyable value holding only the dimension; all
// queries are O(1) bit operations.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/bitops.hpp"
#include "common/contracts.hpp"

namespace slcube::topo {

class Hypercube {
 public:
  /// Dimensions 1..20 are supported (2^20 = 1M nodes; the analysis code
  /// allocates per-node arrays, so we bound n to keep memory sane).
  static constexpr unsigned kMaxDimension = 20;

  // Compile-time width guard (the mega-cube bugfix sweep's tripwire):
  // node ids and navigation vectors are 32-bit words, so every
  // `1 << dim`-style mask in the routing code is only safe while the
  // dimension stays strictly below 32 — and num_nodes() must be computed
  // in 64 bits regardless, because 2^31 node *counts* already overflow
  // int. Raising kMaxDimension past 31 requires widening NodeId first;
  // this assert turns that latent truncation into a build failure.
  static_assert(kMaxDimension < std::numeric_limits<NodeId>::digits,
                "node labels must fit NodeId with room for 1 << dim masks");
  static_assert(kMaxDimension < 32,
                "navigation vectors / bitops masks are 32-bit words");

  explicit constexpr Hypercube(unsigned dimension) : n_(dimension) {
    SLC_EXPECT(dimension >= 1 && dimension <= kMaxDimension);
  }

  [[nodiscard]] constexpr unsigned dimension() const noexcept { return n_; }
  [[nodiscard]] constexpr std::uint64_t num_nodes() const noexcept {
    return std::uint64_t{1} << n_;
  }
  /// Every node of Q_n has exactly n neighbors.
  [[nodiscard]] constexpr unsigned degree() const noexcept { return n_; }

  [[nodiscard]] constexpr bool contains(NodeId a) const noexcept {
    return a < num_nodes();
  }

  /// a ⊕ e^d — the neighbor of `a` along dimension `d`.
  [[nodiscard]] constexpr NodeId neighbor(NodeId a, Dim d) const noexcept {
    SLC_ASSERT(contains(a) && d < n_);
    return bits::flip(a, d);
  }

  /// Graph distance == Hamming distance of labels.
  [[nodiscard]] constexpr unsigned distance(NodeId a, NodeId b) const noexcept {
    SLC_ASSERT(contains(a) && contains(b));
    return bits::hamming(a, b);
  }

  [[nodiscard]] constexpr bool adjacent(NodeId a, NodeId b) const noexcept {
    return distance(a, b) == 1;
  }

  /// Bit mask of the preferred dimensions of the pair (s, d): the paper's
  /// navigation vector N = s ⊕ d.
  [[nodiscard]] constexpr std::uint32_t navigation_vector(
      NodeId s, NodeId d) const noexcept {
    SLC_ASSERT(contains(s) && contains(d));
    return s ^ d;
  }

  /// Call f(dim, neighbor) for every neighbor of `a`, low dimension first.
  template <typename F>
  constexpr void for_each_neighbor(NodeId a, F&& f) const {
    for (Dim d = 0; d < n_; ++d) f(d, neighbor(a, d));
  }

  /// Preferred neighbors of `a` w.r.t. navigation vector `nav`
  /// (neighbors that reduce the distance to the destination).
  template <typename F>
  constexpr void for_each_preferred(NodeId a, std::uint32_t nav, F&& f) const {
    bits::for_each_set(nav, [&](Dim d) { f(d, neighbor(a, d)); });
  }

  /// Spare neighbors of `a` w.r.t. navigation vector `nav`
  /// (neighbors that increase the distance to the destination by one).
  template <typename F>
  constexpr void for_each_spare(NodeId a, std::uint32_t nav, F&& f) const {
    bits::for_each_clear(nav, n_, [&](Dim d) { f(d, neighbor(a, d)); });
  }

  /// Whether pred(dim, neighbor) holds for some preferred neighbor of `a`:
  /// low dimension first, stopping at the first neighbor that satisfies
  /// it. An OR over the preferred neighbors reads only up to its witness.
  template <typename P>
  constexpr bool any_preferred(NodeId a, std::uint32_t nav, P&& pred) const {
    return bits::any_set(nav, [&](Dim d) { return pred(d, neighbor(a, d)); });
  }

  /// any_preferred over the spare neighbors.
  template <typename P>
  constexpr bool any_spare(NodeId a, std::uint32_t nav, P&& pred) const {
    return bits::any_set(~nav & bits::low_mask(n_),
                         [&](Dim d) { return pred(d, neighbor(a, d)); });
  }

  /// All node labels, 0..2^n-1 (for exhaustive sweeps in tests).
  [[nodiscard]] std::vector<NodeId> all_nodes() const;

  friend constexpr bool operator==(const Hypercube&, const Hypercube&) =
      default;

 private:
  unsigned n_;
};

}  // namespace slcube::topo
