#include "fault/link_fault_set.hpp"

namespace slcube::fault {

void LinkFaultSet::mark_faulty(NodeId a, Dim d) {
  const std::uint64_t k = key(a, d);
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), k);
  if (it != keys_.end() && *it == k) return;
  keys_.insert(it, k);
  touched_.mark_faulty(a);
  touched_.mark_faulty(cube_.neighbor(a, d));
}

void LinkFaultSet::mark_healthy(NodeId a, Dim d) {
  const std::uint64_t k = key(a, d);
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), k);
  if (it == keys_.end() || *it != k) return;
  keys_.erase(it);
  refresh(a);
  refresh(cube_.neighbor(a, d));
}

void LinkFaultSet::refresh(NodeId a) {
  touched_.mark_healthy(a);
  for (Dim d = 0; d < cube_.dimension(); ++d) {
    if (std::binary_search(keys_.begin(), keys_.end(), key(a, d))) {
      touched_.mark_faulty(a);
      return;
    }
  }
}

unsigned LinkFaultSet::adjacent_faulty(NodeId a) const {
  SLC_ASSERT(cube_.contains(a));
  unsigned count = 0;
  for (Dim d = 0; d < cube_.dimension(); ++d) {
    count += is_faulty(a, d) ? 1u : 0u;
  }
  return count;
}

std::vector<std::pair<NodeId, Dim>> LinkFaultSet::faulty_links() const {
  std::vector<std::pair<NodeId, Dim>> out;
  out.reserve(keys_.size());
  for (const std::uint64_t k : keys_) {
    out.emplace_back(static_cast<NodeId>(k >> 6),
                     static_cast<Dim>(k & 63));
  }
  return out;
}

}  // namespace slcube::fault
