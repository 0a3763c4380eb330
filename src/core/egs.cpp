#include "core/egs.hpp"
#include "obs/profiler.hpp"

#include <algorithm>
#include <array>

#include "core/global_status.hpp"
#include "core/walk.hpp"

namespace slcube::core {

EgsResult run_egs(const topo::Hypercube& cube, const fault::FaultSet& faults,
                  const fault::LinkFaultSet& link_faults) {
  const unsigned n = cube.dimension();
  EgsResult result;
  result.in_n2.assign(static_cast<std::size_t>(cube.num_nodes()), false);

  // Pseudo-fault set for the N1 fixed point: actual faults plus every
  // healthy node with an adjacent faulty link (N2), which self-declares 0.
  fault::FaultSet pseudo = faults;
  for (NodeId a = 0; a < cube.num_nodes(); ++a) {
    if (faults.is_healthy(a) && link_faults.touches(a)) {
      result.in_n2[a] = true;
      pseudo.mark_faulty(a);
    }
  }

  const GsResult gs = run_gs(cube, pseudo);
  result.public_view = gs.levels;
  result.rounds_to_stabilize = gs.rounds_to_stabilize;

  // Last round: each N2 node runs NODE_STATUS once on its own view. Far
  // ends of its faulty links are forced to 0 explicitly, though they are
  // already 0 in the public view (a healthy far end is itself in N2).
  result.self_view = result.public_view;
  for (NodeId a = 0; a < cube.num_nodes(); ++a) {
    if (!result.in_n2[a]) continue;
    std::array<Level, topo::Hypercube::kMaxDimension> seq{};
    for (Dim d = 0; d < n; ++d) {
      seq[d] = link_faults.is_faulty(a, d)
                   ? Level{0}
                   : result.public_view[cube.neighbor(a, d)];
    }
    std::sort(seq.begin(), seq.begin() + n);
    result.self_view[a] = node_status(std::span<const Level>(seq.data(), n),
                                      n);
  }
  return result;
}

SourceDecision decide_at_source_egs(const topo::Hypercube& cube,
                                    const fault::LinkFaultSet& link_faults,
                                    EgsViews views, NodeId s, NodeId d) {
  SourceDecision dec;
  const std::uint32_t nav = cube.navigation_vector(s, d);
  dec.hamming = bits::popcount(nav);
  if (dec.hamming == 0) {
    dec.c1 = true;
    return dec;
  }
  // The self-view guarantee explicitly excludes the far ends of the
  // source's own faulty links; those must be reached the long way round.
  dec.dest_link_faulty =
      dec.hamming == 1 && link_faults.is_faulty(s, bits::lowest_set(nav));
  dec.c1 = !dec.dest_link_faulty && views.self_view[s] >= dec.hamming;
  cube.for_each_preferred(s, nav, [&](Dim dim, NodeId b) {
    if (link_faults.is_faulty(s, dim)) return;
    dec.c2 |= views.public_view[b] + 1u >= dec.hamming;
  });
  cube.for_each_spare(s, nav, [&](Dim dim, NodeId b) {
    if (link_faults.is_faulty(s, dim)) return;
    dec.c3 |= views.public_view[b] >= dec.hamming + 1u;
  });
  return dec;
}

RouteResult route_unicast_egs(const topo::Hypercube& cube,
                              const fault::FaultSet& faults,
                              const fault::LinkFaultSet& link_faults,
                              EgsViews views, NodeId s, NodeId d,
                              const UnicastOptions& options) {
  const obs::StageScope stage("route.egs");
  SLC_EXPECT_MSG(faults.is_healthy(s), "unicast source must be healthy");
  SLC_EXPECT_MSG(faults.is_healthy(d), "unicast destination must be healthy");
  RouteResult result;
  NoGround ground;
  walk_route(EgsView{cube, link_faults, views}, ground, s, d, options, result);
  return result;
}

}  // namespace slcube::core
