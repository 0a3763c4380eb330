#include "workload/churn.hpp"

namespace slcube::workload {

svc::ChurnRecord next_churn(const topo::Hypercube& cube,
                            fault::FaultSet& faults,
                            fault::LinkFaultSet& links, Xoshiro256ss& rng) {
  using Kind = svc::ChurnRecord::Kind;
  const std::uint64_t ceiling = 2 * cube.dimension();
  if (rng.chance(0.5)) {
    const bool repair = faults.count() >= ceiling ||
                        (faults.count() > 4 && rng.chance(0.3));
    if (repair) {
      const auto faulty = faults.faulty_nodes();
      const NodeId back = faulty[rng.below(faulty.size())];
      faults.mark_healthy(back);
      return {Kind::kNodeRecover, back, 0};
    }
    NodeId victim;
    do {
      victim = static_cast<NodeId>(rng.below(cube.num_nodes()));
    } while (faults.is_faulty(victim));
    faults.mark_faulty(victim);
    return {Kind::kNodeFail, victim, 0};
  }
  const bool repair =
      links.count() >= ceiling || (links.count() > 4 && rng.chance(0.3));
  if (repair) {
    const auto faulty = links.faulty_links();
    const auto [a, d] = faulty[rng.below(faulty.size())];
    links.mark_healthy(a, d);
    return {Kind::kLinkRecover, a, d};
  }
  NodeId a;
  Dim d;
  do {
    a = static_cast<NodeId>(rng.below(cube.num_nodes()));
    d = static_cast<Dim>(rng.below(cube.dimension()));
  } while (links.is_faulty(a, d));
  links.mark_faulty(a, d);
  return {Kind::kLinkFail, a, d};
}

}  // namespace slcube::workload
