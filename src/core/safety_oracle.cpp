#include "core/safety_oracle.hpp"
#include "obs/profiler.hpp"

namespace slcube::core {

SafetyOracle::SafetyOracle(const topo::Hypercube& cube)
    : cube_(cube),
      faults_(cube.num_nodes()),
      levels_(cube.dimension(), cube.num_nodes(),
              static_cast<Level>(cube.dimension())),
      queued_(static_cast<std::size_t>(cube.num_nodes())) {}

SafetyOracle::SafetyOracle(const topo::Hypercube& cube,
                           const fault::FaultSet& faults)
    : cube_(cube),
      faults_(faults),
      levels_(compute_safety_levels(cube, faults)),
      queued_(static_cast<std::size_t>(cube.num_nodes())) {
  SLC_EXPECT(faults.num_nodes() == cube.num_nodes());
}

void SafetyOracle::push(NodeId a) {
  if (!queued_[a] && faults_.is_healthy(a)) {
    queued_[a] = true;
    worklist_.push_back(a);
  }
}

void SafetyOracle::cascade() {
  const obs::StageScope stage("oracle.cascade");
  // Safety valve: in one monotone phase each healthy node changes level
  // at most n times and is re-enqueued at most once per change of one of
  // its n inputs.
  const std::uint64_t hard_cap =
      cube_.num_nodes() * (cube_.dimension() + 1) * cube_.dimension() + 1;
  std::uint64_t steps = 0;
  while (!worklist_.empty()) {
    SLC_ASSERT_MSG(++steps <= hard_cap, "oracle cascade failed to converge");
    const NodeId a = worklist_.back();
    worklist_.pop_back();
    queued_[a] = false;
    if (faults_.is_faulty(a)) continue;  // died while queued (batch adds)
    const Level updated = implied_level(cube_, faults_, levels_, a);
    ++stats_.recomputes;
    if (updated == levels_[a]) continue;
    levels_[a] = updated;
    if (change_log_ != nullptr) change_log_->push_back(a);
    ++stats_.level_changes;
    cube_.for_each_neighbor(a, [&](Dim, NodeId b) { push(b); });
  }
  ++stats_.cascades;
}

void SafetyOracle::add_fault(NodeId a) { update({&a, 1}, {}); }

void SafetyOracle::remove_fault(NodeId a) { update({}, {&a, 1}); }

void SafetyOracle::apply(std::span<const NodeId> additions,
                         std::span<const NodeId> removals) {
  const obs::StageScope stage("oracle.apply");
  update(additions, removals);
}

void SafetyOracle::update(std::span<const NodeId> additions,
                          std::span<const NodeId> removals) {
  // Falling phase: all additions at once, then one cascade.
  if (!additions.empty()) {
    for (const NodeId a : additions) {
      SLC_EXPECT_MSG(faults_.is_healthy(a), "adding an already-faulty node");
      faults_.mark_faulty(a);
      levels_[a] = 0;
      if (change_log_ != nullptr) change_log_->push_back(a);
    }
    for (const NodeId a : additions) {
      cube_.for_each_neighbor(a, [&](Dim, NodeId b) { push(b); });
    }
    cascade();
  }
  // Rising phase: all removals at once, then one cascade. A newcomer
  // still holds level 0, which is exactly what its neighbors' implied
  // levels already price in (faulty nodes read 0), so the state sits
  // pointwise below the new fixed point and the cascade rises
  // monotonically from the newcomers outward.
  if (!removals.empty()) {
    for (const NodeId a : removals) {
      SLC_EXPECT_MSG(faults_.is_faulty(a), "removing a healthy node");
      faults_.mark_healthy(a);
    }
    for (const NodeId a : removals) {
      push(a);
      cube_.for_each_neighbor(a, [&](Dim, NodeId b) { push(b); });
    }
    cascade();
  }
}

}  // namespace slcube::core
