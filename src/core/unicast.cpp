#include "core/unicast.hpp"
#include "core/walk.hpp"
#include "obs/profiler.hpp"

namespace slcube::core {

const char* to_string(RouteStatus s) {
  switch (s) {
    case RouteStatus::kDeliveredOptimal:
      return "delivered-optimal";
    case RouteStatus::kDeliveredSuboptimal:
      return "delivered-suboptimal";
    case RouteStatus::kSourceRefused:
      return "source-refused";
    case RouteStatus::kStuck:
      return "stuck";
    case RouteStatus::kDroppedSource:
      return "dropped-source";
    case RouteStatus::kDroppedNode:
      return "dropped-node";
    case RouteStatus::kDroppedLink:
      return "dropped-link";
  }
  SLC_UNREACHABLE("bad RouteStatus");
}

SourceDecision decide_at_source(const topo::Hypercube& cube,
                                const SafetyLevels& levels, NodeId s,
                                NodeId d) {
  SourceDecision dec;
  const std::uint32_t nav = cube.navigation_vector(s, d);
  dec.hamming = bits::popcount(nav);
  if (dec.hamming == 0) {  // s == d: trivially "optimal", nothing to send
    dec.c1 = true;
    return dec;
  }
  dec.c1 = levels[s] >= dec.hamming;
  cube.for_each_preferred(s, nav, [&](Dim, NodeId b) {
    dec.c2 |= levels[b] + 1u >= dec.hamming;  // level >= H - 1, unsigned-safe
  });
  cube.for_each_spare(s, nav, [&](Dim, NodeId b) {
    dec.c3 |= levels[b] >= dec.hamming + 1u;
  });
  return dec;
}

RouteResult route_unicast(const topo::Hypercube& cube,
                          const fault::FaultSet& faults,
                          const SafetyLevels& levels, NodeId s, NodeId d,
                          const UnicastOptions& options) {
  const obs::StageScope stage("route");
  SLC_EXPECT_MSG(faults.is_healthy(s), "unicast source must be healthy");
  SLC_EXPECT_MSG(faults.is_healthy(d), "unicast destination must be healthy");
  SLC_EXPECT(levels.size() == cube.num_nodes());
  RouteResult result;
  NoGround ground;
  walk_route(LevelView{cube, levels}, ground, s, d, options, result);
  return result;
}

RouteResult route_unicast_greedy(const topo::Hypercube& cube,
                                 const fault::FaultSet& faults,
                                 const SafetyLevels& levels, NodeId s,
                                 NodeId d, const UnicastOptions& options) {
  const obs::StageScope stage("route.greedy");
  SLC_EXPECT_MSG(faults.is_healthy(s), "unicast source must be healthy");
  SLC_EXPECT_MSG(faults.is_healthy(d), "unicast destination must be healthy");
  RouteResult result;
  NoGround ground;
  walk_route(LevelView{cube, levels}, ground, s, d, options, result,
             /*dispatch=*/false);
  return result;
}

}  // namespace slcube::core
