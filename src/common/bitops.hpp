// Bit-manipulation helpers used throughout the hypercube code.
//
// A node address in an n-cube is the n-bit binary integer a_{n-1}..a_0;
// dimension i corresponds to bit i (the paper's "ith bit / ith dimension").
// Everything here is constexpr and branch-light (Core Guidelines Per.11,
// Per.14: computation at compile time, no allocation).
#pragma once

#include <bit>
#include <cstdint>

#include "common/contracts.hpp"

namespace slcube {

/// Node identifier. 32 bits supports cubes up to dimension 31, far above
/// anything the paper (or any physical hypercube machine) used.
using NodeId = std::uint32_t;

/// A dimension index 0..n-1.
using Dim = std::uint32_t;

namespace bits {

/// Number of set bits — the Hamming weight |a|.
[[nodiscard]] constexpr unsigned popcount(std::uint32_t v) noexcept {
  return static_cast<unsigned>(std::popcount(v));
}

/// Iterate the set bits of a 64-bit word low-to-high, calling f(index).
/// The word-scan workhorse for FaultSet-sized bitsets; the 32-bit
/// for_each_set below stays the navigation-vector entry point.
template <typename F>
constexpr void for_each_set64(std::uint64_t mask, F&& f) {
  while (mask != 0) {
    f(static_cast<unsigned>(std::countr_zero(mask)));
    mask &= mask - 1;  // clear lowest set bit
  }
}

/// Hamming distance H(a, b) between two addresses (the paper's H(s, d)).
[[nodiscard]] constexpr unsigned hamming(NodeId a, NodeId b) noexcept {
  return popcount(a ^ b);
}

/// The unit vector e^k of the paper: a word with only bit k set.
[[nodiscard]] constexpr std::uint32_t unit(Dim k) noexcept {
  return std::uint32_t{1} << k;
}

/// Flip bit `k` of `a` — the paper's a ⊕ e^k, i.e. the neighbor of `a`
/// along dimension k.
[[nodiscard]] constexpr NodeId flip(NodeId a, Dim k) noexcept {
  return a ^ unit(k);
}

/// Test bit `k` of `a`.
[[nodiscard]] constexpr bool test(std::uint32_t a, Dim k) noexcept {
  return (a >> k) & 1u;
}

/// Index of the lowest set bit. Precondition: v != 0.
[[nodiscard]] constexpr Dim lowest_set(std::uint32_t v) noexcept {
  return static_cast<Dim>(std::countr_zero(v));
}

/// Index of the highest set bit. Precondition: v != 0.
[[nodiscard]] constexpr Dim highest_set(std::uint32_t v) noexcept {
  return 31u - static_cast<Dim>(std::countl_zero(v));
}

/// Mask with the low `n` bits set (n <= 32).
[[nodiscard]] constexpr std::uint32_t low_mask(unsigned n) noexcept {
  return n >= 32 ? ~std::uint32_t{0} : (std::uint32_t{1} << n) - 1u;
}

/// Iterate the set bits of `mask` low-to-high, calling f(dim).
/// Used to enumerate preferred dimensions of a navigation vector.
template <typename F>
constexpr void for_each_set(std::uint32_t mask, F&& f) {
  while (mask != 0) {
    const Dim d = lowest_set(mask);
    f(d);
    mask &= mask - 1;  // clear lowest set bit
  }
}

/// Iterate the *clear* bits of `mask` among the low `n` bits, low-to-high.
/// Used to enumerate spare dimensions.
template <typename F>
constexpr void for_each_clear(std::uint32_t mask, unsigned n, F&& f) {
  for_each_set(~mask & low_mask(n), static_cast<F&&>(f));
}

/// Whether pred(dim) holds for some set bit of `mask`: the bits are tried
/// low-to-high and the scan stops at the first that satisfies it.
template <typename P>
constexpr bool any_set(std::uint32_t mask, P&& pred) {
  for (; mask != 0; mask &= mask - 1) {
    if (pred(lowest_set(mask))) return true;
  }
  return false;
}

}  // namespace bits
}  // namespace slcube
