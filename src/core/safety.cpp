#include "core/safety.hpp"

#include <algorithm>
#include <array>

namespace slcube::core {

std::vector<NodeId> SafetyLevels::safe_nodes() const {
  std::vector<NodeId> out;
  for (NodeId a = 0; a < packed_.size(); ++a) {
    if (packed_.get(a) == n_) out.push_back(a);
  }
  return out;
}

std::vector<Level> SafetyLevels::unpack() const {
  std::vector<Level> out(static_cast<std::size_t>(packed_.size()));
  for (NodeId a = 0; a < packed_.size(); ++a) out[a] = packed_.get(a);
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
                    const fault::FaultSet& faults, const SafetyLevels& levels,
                    NodeId a) {
  SLC_EXPECT(faults.is_healthy(a));
  const unsigned n = cube.dimension();
  // Counting-sort form of the NODE_STATUS kernel: S_i (the (i+1)-th
  // smallest neighbor level) is < i iff at least i+1 neighbors sit at a
  // level <= i-1, so the minimal failing index is the first i with
  // cnt_le(i-1) >= i+1 — no sort needed, and the packed gather is a
  // plain shift+mask per neighbor. test_safety pins this equal to the
  // sort-then-node_status kernel over exhaustive level sequences.
  std::array<std::uint8_t, topo::Hypercube::kMaxDimension + 1> cnt{};
  for (Dim d = 0; d < n; ++d) ++cnt[levels[cube.neighbor(a, d)]];
  unsigned at_most = 0;  // neighbors with level <= i-1, maintained per i
  for (unsigned i = 1; i < n; ++i) {
    at_most += cnt[i - 1];
    if (at_most >= i + 1) return static_cast<Level>(i);
  }
  return static_cast<Level>(n);
}

bool is_consistent(const topo::Hypercube& cube, const fault::FaultSet& faults,
                   const SafetyLevels& levels) {
  SLC_EXPECT(levels.size() == cube.num_nodes());
  for (NodeId a = 0; a < cube.num_nodes(); ++a) {
    if (faults.is_faulty(a)) {
      if (levels[a] != 0) return false;
    } else if (levels[a] != implied_level(cube, faults, levels, a)) {
      return false;
    }
  }
  return true;
}

}  // namespace slcube::core
