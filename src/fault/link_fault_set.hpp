// Link faults for Section 4.1 ("Hypercubes with Both Faulty Links and
// Nodes"). A hypercube link is identified by its lower endpoint and its
// dimension: the link along dimension d incident to node a connects a and
// a ⊕ e^d; we canonicalize to the endpoint whose bit d is 0.
//
// The paper assumes every nonfaulty node can distinguish an adjacent
// faulty link from an adjacent faulty node; this class is that oracle.
// Routers ask it at the source and on every hop, so the layout serves
// that query: one bit per node marks the nodes that touch a faulty link
// (the paper's N2 among the healthy nodes), and a sorted array holds the
// canonical keys. A node with its bit clear answers "healthy" after one
// bit test; only N2 nodes binary-search the keys (DESIGN.md, "Link-fault
// lookups").
//
// There is deliberately no default constructor: a LinkFaultSet is only
// meaningful relative to one concrete cube (the canonical key encodes
// node ids and dimensions of THAT cube), and a placeholder cube would
// either trip the SLC_EXPECT in key() or silently reject every d >= 1.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bitops.hpp"
#include "common/contracts.hpp"
#include "fault/fault_set.hpp"
#include "topology/hypercube.hpp"

namespace slcube::fault {

class LinkFaultSet {
 public:
  explicit LinkFaultSet(topo::Hypercube cube)
      : cube_(cube), touched_(cube.num_nodes()) {}

  [[nodiscard]] const topo::Hypercube& cube() const noexcept { return cube_; }

  /// Mark the link between `a` and its dimension-`d` neighbor as faulty.
  /// O(count()): one sorted insert.
  void mark_faulty(NodeId a, Dim d);

  /// Repair the link; a no-op when it is already healthy. O(count()).
  void mark_healthy(NodeId a, Dim d);

  /// One bit test when `a` touches no faulty link, else a binary search
  /// over the keys.
  [[nodiscard]] bool is_faulty(NodeId a, Dim d) const {
    const std::uint64_t k = key(a, d);  // checks the range precondition
    return touched_.is_faulty(a) &&
           std::binary_search(keys_.begin(), keys_.end(), k);
  }

  [[nodiscard]] std::size_t count() const noexcept { return keys_.size(); }
  [[nodiscard]] bool empty() const noexcept { return keys_.empty(); }

  /// True iff node `a` has at least one adjacent faulty link — i.e. `a`
  /// belongs to the paper's set N2 (assuming `a` itself is nonfaulty).
  /// One bit test.
  [[nodiscard]] bool touches(NodeId a) const {
    SLC_ASSERT(cube_.contains(a));
    return touched_.is_faulty(a);
  }

  /// Number of faulty links incident to `a` (0..n), counted with n
  /// lookups. Only tests need the count; everything else asks touches().
  [[nodiscard]] unsigned adjacent_faulty(NodeId a) const;

  /// All faulty links as (lower endpoint, dimension) pairs, sorted.
  [[nodiscard]] std::vector<std::pair<NodeId, Dim>> faulty_links() const;

 private:
  /// Canonical key: lower endpoint (bit d clear) in the high bits,
  /// dimension in the low bits, so key order is (endpoint, dim) order.
  [[nodiscard]] std::uint64_t key(NodeId a, Dim d) const {
    SLC_EXPECT(cube_.contains(a) && d < cube_.dimension());
    const NodeId low = bits::test(a, d) ? bits::flip(a, d) : a;
    return (static_cast<std::uint64_t>(low) << 6) | d;
  }

  /// Re-derive a's bit from the keys after one of its links was repaired.
  void refresh(NodeId a);

  topo::Hypercube cube_;
  /// Bit a set iff node a has at least one faulty link.
  FaultSet touched_;
  /// Canonical keys of the faulty links, ascending, no duplicates.
  std::vector<std::uint64_t> keys_;
};

}  // namespace slcube::fault
