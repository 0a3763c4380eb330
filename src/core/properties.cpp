#include "core/properties.hpp"

#include <sstream>

#include "analysis/bfs.hpp"
#include "analysis/components.hpp"
#include "common/format.hpp"
#include "core/global_status.hpp"

namespace slcube::core {

std::string check_theorem2(const topo::Hypercube& cube,
                           const fault::FaultSet& faults,
                           const SafetyLevels& levels) {
  const topo::HypercubeView view(cube);
  for (NodeId a = 0; a < cube.num_nodes(); ++a) {
    if (faults.is_faulty(a) || levels[a] == 0) continue;
    const auto dist = analysis::bfs_distances(view, faults, a);
    for (NodeId b = 0; b < cube.num_nodes(); ++b) {
      if (b == a || faults.is_faulty(b)) continue;
      const unsigned h = cube.distance(a, b);
      if (h > levels[a]) continue;
      if (dist[b] != h) {
        std::ostringstream os;
        os << "Theorem 2 violated: node " << to_bits(a, cube.dimension())
           << " has level " << int{levels[a]} << " but no Hamming path to "
           << to_bits(b, cube.dimension()) << " at distance " << h
           << " (BFS distance "
           << (dist[b] == analysis::kUnreachable ? -1 : int(dist[b])) << ")";
        return os.str();
      }
    }
  }
  return {};
}

std::string check_theorem2_gh(const topo::GeneralizedHypercube& gh,
                              const fault::FaultSet& faults,
                              const SafetyLevels& levels) {
  const topo::GeneralizedHypercubeView view(gh);
  for (NodeId a = 0; a < gh.num_nodes(); ++a) {
    if (faults.is_faulty(a) || levels[a] == 0) continue;
    const auto dist = analysis::bfs_distances(view, faults, a);
    for (NodeId b = 0; b < gh.num_nodes(); ++b) {
      if (b == a || faults.is_faulty(b)) continue;
      const unsigned h = gh.distance(a, b);
      if (h > levels[a]) continue;
      if (dist[b] != h) {
        std::ostringstream os;
        os << "Theorem 2' violated: node " << a << " level "
           << int{levels[a]} << " cannot reach node " << b
           << " at coordinate distance " << h;
        return os.str();
      }
    }
  }
  return {};
}

std::vector<unsigned> gs_stabilization_rounds(const topo::Hypercube& cube,
                                              const fault::FaultSet& faults) {
  const unsigned n = cube.dimension();
  std::vector<Level> levels(static_cast<std::size_t>(cube.num_nodes()),
                            static_cast<Level>(n));
  faults.for_each_faulty([&](NodeId a) { levels[a] = 0; });
  std::vector<unsigned> last_change(
      static_cast<std::size_t>(cube.num_nodes()), 0);
  std::vector<Level> next = levels;
  for (unsigned round = 1;; ++round) {
    SLC_ASSERT(round <= cube.num_nodes() * n + 1);
    bool changed = false;
    for (NodeId a = 0; a < cube.num_nodes(); ++a) {
      if (faults.is_faulty(a)) continue;
      next[a] = implied_level(cube, faults, levels, a);
      if (next[a] != levels[a]) {
        last_change[a] = round;
        changed = true;
      }
    }
    if (!changed) break;
    std::swap(levels, next);
  }
  return last_change;
}

std::string check_property1(const topo::Hypercube& cube,
                            const fault::FaultSet& faults) {
  const unsigned n = cube.dimension();
  const SafetyLevels levels = compute_safety_levels(cube, faults);
  const auto rounds = gs_stabilization_rounds(cube, faults);
  for (NodeId a = 0; a < cube.num_nodes(); ++a) {
    if (faults.is_faulty(a)) continue;
    const unsigned bound = levels[a] == n ? n - 1 : levels[a];
    if (rounds[a] > bound) {
      std::ostringstream os;
      os << "Property 1 violated: node " << to_bits(a, n) << " (level "
         << int{levels[a]} << ") stabilized at round " << rounds[a]
         << " > bound " << bound;
      return os.str();
    }
  }
  return {};
}

std::string check_property2(const topo::Hypercube& cube,
                            const fault::FaultSet& faults,
                            const SafetyLevels& levels) {
  const unsigned n = cube.dimension();
  SLC_EXPECT_MSG(faults.count() < n, "Property 2 requires fewer than n faults");
  for (NodeId a = 0; a < cube.num_nodes(); ++a) {
    if (faults.is_faulty(a) || levels.is_safe(a)) continue;
    bool has_safe_neighbor = false;
    cube.for_each_neighbor(a, [&](Dim, NodeId b) {
      has_safe_neighbor |= levels.is_safe(b);
    });
    if (!has_safe_neighbor) {
      std::ostringstream os;
      os << "Property 2 violated: unsafe node " << to_bits(a, n)
         << " (level " << int{levels[a]} << ") has no safe neighbor with "
         << faults.count() << " < " << n << " faults";
      return os.str();
    }
  }
  return {};
}

std::string check_safe_set_containment(const topo::Hypercube& cube,
                                       const fault::FaultSet& faults) {
  const SafetyLevels levels = compute_safety_levels(cube, faults);
  const auto lh = compute_safe_nodes(cube, faults, SafeNodeRule::kLeeHayes);
  const auto wf = compute_safe_nodes(cube, faults, SafeNodeRule::kWuFernandez);
  for (NodeId a = 0; a < cube.num_nodes(); ++a) {
    if (lh.safe[a] && !wf.safe[a]) {
      return "containment violated: LH-safe node " +
             to_bits(a, cube.dimension()) + " is not WF-safe";
    }
    if (wf.safe[a] && !levels.is_safe(a)) {
      return "containment violated: WF-safe node " +
             to_bits(a, cube.dimension()) + " is not level-n";
    }
  }
  return {};
}

std::string check_theorem4(const topo::Hypercube& cube,
                           const fault::FaultSet& faults) {
  const topo::HypercubeView view(cube);
  const auto comps = analysis::connected_components(view, faults);
  if (!comps.disconnected()) return {};
  const auto lh = compute_safe_nodes(cube, faults, SafeNodeRule::kLeeHayes);
  const auto wf = compute_safe_nodes(cube, faults, SafeNodeRule::kWuFernandez);
  if (const auto c = wf.safe_count(); c != 0) {
    return "Theorem 4 violated: disconnected cube has " + std::to_string(c) +
           " WF-safe nodes";
  }
  if (const auto c = lh.safe_count(); c != 0) {
    return "Theorem 4 violated: disconnected cube has " + std::to_string(c) +
           " LH-safe nodes";
  }
  return {};
}

}  // namespace slcube::core
