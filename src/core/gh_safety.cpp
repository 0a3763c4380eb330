#include "core/gh_safety.hpp"

#include <algorithm>
#include <array>

#include "core/walk.hpp"

namespace slcube::core {

Level implied_level_gh(const topo::GeneralizedHypercube& gh,
                       const fault::FaultSet& faults,
                       const SafetyLevels& levels, NodeId a) {
  SLC_EXPECT(faults.is_healthy(a));
  const unsigned n = gh.dimension();
  SLC_EXPECT(n <= topo::Hypercube::kMaxDimension);
  std::array<Level, topo::Hypercube::kMaxDimension> seq{};
  for (Dim i = 0; i < n; ++i) {
    Level dim_min = static_cast<Level>(n);
    const std::uint32_t own = gh.coordinate(a, i);
    for (std::uint32_t c = 0; c < gh.radix(i); ++c) {
      if (c == own) continue;
      dim_min = std::min(dim_min, levels[gh.with_coordinate(a, i, c)]);
    }
    seq[i] = dim_min;
  }
  std::sort(seq.begin(), seq.begin() + n);
  return node_status(std::span<const Level>(seq.data(), n), n);
}

GhGsResult run_gs_gh(const topo::GeneralizedHypercube& gh,
                     const fault::FaultSet& faults) {
  const unsigned n = gh.dimension();
  GhGsResult result;
  result.levels = SafetyLevels(n, gh.num_nodes(), static_cast<Level>(n));
  for (NodeId a = 0; a < gh.num_nodes(); ++a) {
    if (faults.is_faulty(a)) result.levels[a] = 0;
  }
  SafetyLevels next = result.levels;
  const std::uint64_t hard_cap = gh.num_nodes() * n + 1;
  for (std::uint64_t round = 1;; ++round) {
    SLC_ASSERT_MSG(round <= hard_cap, "GH GS failed to converge");
    std::uint64_t changed = 0;
    for (NodeId a = 0; a < gh.num_nodes(); ++a) {
      if (faults.is_faulty(a)) continue;
      const Level updated = implied_level_gh(gh, faults, result.levels, a);
      next[a] = updated;
      changed += updated != result.levels[a] ? 1u : 0u;
    }
    if (changed == 0) break;
    std::swap(result.levels, next);
    result.changes_per_round.push_back(changed);
  }
  result.rounds_to_stabilize =
      static_cast<unsigned>(result.changes_per_round.size());
  SLC_ENSURE(is_consistent_gh(gh, faults, result.levels));
  return result;
}

bool is_consistent_gh(const topo::GeneralizedHypercube& gh,
                      const fault::FaultSet& faults,
                      const SafetyLevels& levels) {
  SLC_EXPECT(levels.size() == gh.num_nodes());
  for (NodeId a = 0; a < gh.num_nodes(); ++a) {
    if (faults.is_faulty(a)) {
      if (levels[a] != 0) return false;
    } else if (levels[a] != implied_level_gh(gh, faults, levels, a)) {
      return false;
    }
  }
  return true;
}

SourceDecision decide_at_source_gh(const topo::GeneralizedHypercube& gh,
                                   const SafetyLevels& levels, NodeId s,
                                   NodeId d) {
  SourceDecision dec;
  dec.hamming = gh.distance(s, d);
  if (dec.hamming == 0) {
    dec.c1 = true;
    return dec;
  }
  dec.c1 = levels[s] >= dec.hamming;
  for (Dim i = 0; i < gh.dimension(); ++i) {
    const std::uint32_t sc = gh.coordinate(s, i);
    const std::uint32_t dc = gh.coordinate(d, i);
    if (sc != dc) {
      // Preferred neighbor along a differing dimension: the node carrying
      // the destination's coordinate.
      dec.c2 |= levels[gh.with_coordinate(s, i, dc)] + 1u >= dec.hamming;
    } else {
      // Every other node along a matching dimension is a spare neighbor.
      for (std::uint32_t c = 0; c < gh.radix(i); ++c) {
        if (c == sc) continue;
        dec.c3 |= levels[gh.with_coordinate(s, i, c)] >= dec.hamming + 1u;
      }
    }
  }
  return dec;
}

RouteResult route_unicast_gh(const topo::GeneralizedHypercube& gh,
                             const fault::FaultSet& faults,
                             const SafetyLevels& levels, NodeId s, NodeId d,
                             const UnicastOptions& options) {
  SLC_EXPECT_MSG(faults.is_healthy(s), "unicast source must be healthy");
  SLC_EXPECT_MSG(faults.is_healthy(d), "unicast destination must be healthy");

  RouteResult result;
  result.decision = decide_at_source_gh(gh, levels, s, d);
  result.path.push_back(s);
  if (result.decision.hamming == 0) {
    result.status = RouteStatus::kDeliveredOptimal;
    return result;
  }

  NodeId cur = s;
  bool suboptimal = false;
  unsigned ties = 0;  // GH routes are not traced

  if (!result.decision.optimal_feasible()) {
    if (!result.decision.c3) {
      result.status = RouteStatus::kSourceRefused;
      return result;
    }
    // Suboptimal detour: best spare neighbor with level >= H + 1.
    const auto spare = argmax_level<NodeId>(options, ties, [&](auto&& visit) {
      for (Dim i = 0; i < gh.dimension(); ++i) {
        const std::uint32_t sc = gh.coordinate(cur, i);
        if (sc != gh.coordinate(d, i)) continue;
        for (std::uint32_t c = 0; c < gh.radix(i); ++c) {
          if (c == sc) continue;
          const NodeId b = gh.with_coordinate(cur, i, c);
          if (levels[b] >= result.decision.hamming + 1u) visit(b, levels[b]);
        }
      }
    });
    SLC_ASSERT_MSG(spare.has_value(), "C3 held but no spare qualified");
    cur = *spare;
    result.path.push_back(cur);
    suboptimal = true;
  }

  // Max-level preferred neighbor: along each differing dimension, the
  // node carrying the destination's coordinate.
  while (cur != d) {
    const auto next = argmax_level<NodeId>(options, ties, [&](auto&& visit) {
      for (Dim i = 0; i < gh.dimension(); ++i) {
        const std::uint32_t dc = gh.coordinate(d, i);
        if (gh.coordinate(cur, i) == dc) continue;
        const NodeId b = gh.with_coordinate(cur, i, dc);
        visit(b, levels[b]);
      }
    });
    if (!next) {
      result.status = RouteStatus::kStuck;
      return result;
    }
    cur = *next;
    result.path.push_back(cur);
  }

  result.status = suboptimal ? RouteStatus::kDeliveredSuboptimal
                             : RouteStatus::kDeliveredOptimal;
  return result;
}

}  // namespace slcube::core
