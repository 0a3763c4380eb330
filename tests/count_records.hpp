// The count records an incremental oracle's cascade reads (safety.hpp,
// "Definition 1 in counting form"), gathered from scratch out of a level
// table. The oracle tests compare SafetyOracle::neighbor_counts() and
// EgsOracle::public_counts() against this after every operation.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/safety.hpp"

namespace slcube::core {

/// Per node, ceil((n - 1) / 8) words; lane t (bits 8(t % 8) up of word
/// t / 8) counts the neighbors at level t, for t = 0..n-2 only.
inline std::vector<std::uint64_t> gathered_counts(
    const topo::Hypercube& cube, std::span<const Level> levels) {
  const unsigned n = cube.dimension();
  const unsigned words = (n - 1 + 7) / 8;
  std::vector<std::uint64_t> counts(cube.num_nodes() * words);
  for (NodeId a = 0; a < cube.num_nodes(); ++a) {
    cube.for_each_neighbor(a, [&](Dim, NodeId b) {
      const unsigned t = levels[b];
      if (t + 1 < n) {
        counts[a * words + t / 8] += std::uint64_t{1} << (8 * (t % 8));
      }
    });
  }
  return counts;
}

/// The counts exist exactly once a cascade has run (the first writer call
/// that changes something builds them), and then equal a fresh gather
/// over `levels`.
inline ::testing::AssertionResult counts_match_gather(
    std::optional<std::span<const std::uint64_t>> counts,
    std::uint64_t cascades, const topo::Hypercube& cube,
    std::span<const Level> levels) {
  if (counts.has_value() != (cascades > 0)) {
    return ::testing::AssertionFailure()
           << "counts " << (counts ? "built" : "unbuilt") << " after "
           << cascades << " cascade(s)";
  }
  if (!counts) return ::testing::AssertionSuccess();
  const std::vector<std::uint64_t> want = gathered_counts(cube, levels);
  if (counts->size() != want.size()) {
    return ::testing::AssertionFailure()
           << counts->size() << " count words, want " << want.size();
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if ((*counts)[i] != want[i]) {
      return ::testing::AssertionFailure()
             << "count word " << i << " (node " << i / (want.size() /
                                                         cube.num_nodes())
             << ") holds " << std::hex << (*counts)[i] << ", a gather gives "
             << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace slcube::core
