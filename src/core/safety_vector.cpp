#include "core/safety_vector.hpp"

#include "core/walk.hpp"

namespace slcube::core {

SafetyVectors compute_safety_vectors(const topo::Hypercube& cube,
                                     const fault::FaultSet& faults) {
  const unsigned n = cube.dimension();
  SafetyVectors v(n, cube.num_nodes());
  // Bit 1: every healthy node reaches all neighbors in one hop.
  for (NodeId a = 0; a < cube.num_nodes(); ++a) {
    if (faults.is_healthy(a)) v.set_bit(a, 1);
  }
  // Round k: bit k+1 from the neighbors' bit k. No iteration to a fixed
  // point — each bit is final the moment it is computed.
  for (unsigned k = 1; k < n; ++k) {
    for (NodeId a = 0; a < cube.num_nodes(); ++a) {
      if (faults.is_faulty(a)) continue;
      unsigned with_bit = 0;
      cube.for_each_neighbor(a, [&](Dim, NodeId b) {
        with_bit += v.bit(b, k) ? 1u : 0u;
      });
      if (with_bit >= n - k) v.set_bit(a, k + 1);  // n - (k+1) + 1
    }
  }
  return v;
}

SourceDecision decide_at_source_sv(const topo::Hypercube& cube,
                                   const SafetyVectors& vectors, NodeId s,
                                   NodeId d) {
  SourceDecision dec;
  const std::uint32_t nav = cube.navigation_vector(s, d);
  dec.hamming = bits::popcount(nav);
  if (dec.hamming == 0) {
    dec.c1 = true;
    return dec;
  }
  const unsigned n = cube.dimension();
  dec.c1 = vectors.bit(s, dec.hamming);
  cube.for_each_preferred(s, nav, [&](Dim, NodeId b) {
    // V(H-1) with H = 1 degenerates to "b == d is one hop away": true.
    dec.c2 |= dec.hamming == 1 || vectors.bit(b, dec.hamming - 1);
  });
  if (dec.hamming < n) {
    cube.for_each_spare(s, nav, [&](Dim, NodeId b) {
      dec.c3 |= vectors.bit(b, dec.hamming + 1);
    });
  }
  return dec;
}

RouteResult route_unicast_sv(const topo::Hypercube& cube,
                             const fault::FaultSet& faults,
                             const SafetyVectors& vectors, NodeId s, NodeId d,
                             const UnicastOptions& options) {
  SLC_EXPECT_MSG(faults.is_healthy(s), "unicast source must be healthy");
  SLC_EXPECT_MSG(faults.is_healthy(d), "unicast destination must be healthy");
  RouteResult result;
  NoGround ground;
  NullEvents events;  // vector routes are never traced
  walk(VectorView{cube, vectors}, ground, events, s, d, options, result);
  return result;
}

}  // namespace slcube::core
