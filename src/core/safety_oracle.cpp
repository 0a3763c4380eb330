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

void SafetyOracle::add_fault(NodeId a) {
  SLC_EXPECT_MSG(faults_.is_healthy(a), "add_fault on an already-faulty node");
  faults_.mark_faulty(a);
  levels_[a] = 0;
  if (change_log_ != nullptr) change_log_->push_back(a);
  cube_.for_each_neighbor(a, [&](Dim, NodeId b) { push(b); });
  cascade();
}

void SafetyOracle::remove_fault(NodeId a) {
  SLC_EXPECT_MSG(faults_.is_faulty(a), "remove_fault on a healthy node");
  faults_.mark_healthy(a);
  // The newcomer still holds level 0, which is exactly what its
  // neighbors' implied levels already price in (faulty nodes read 0),
  // so the state sits pointwise below the new fixed point and the
  // cascade rises monotonically from the newcomer outward.
  push(a);
  cube_.for_each_neighbor(a, [&](Dim, NodeId b) { push(b); });
  cascade();
}

void SafetyOracle::apply(const fault::FaultSet& delta) {
  const obs::StageScope stage("oracle.apply");
  SLC_EXPECT(delta.num_nodes() == faults_.num_nodes());
  if (delta.empty()) return;
  // Falling phase: all additions at once, then one cascade. The
  // partitions live in member arenas — apply() runs once per churn event
  // in sweep loops, and per-call allocations thrash at mega-cube sizes.
  std::vector<NodeId>& additions = additions_scratch_;
  std::vector<NodeId>& removals = removals_scratch_;
  additions.clear();
  removals.clear();
  delta.for_each_faulty([&](NodeId a) {
    (faults_.is_healthy(a) ? additions : removals).push_back(a);
  });
  if (!additions.empty()) {
    for (const NodeId a : additions) {
      faults_.mark_faulty(a);
      levels_[a] = 0;
      if (change_log_ != nullptr) change_log_->push_back(a);
    }
    for (const NodeId a : additions) {
      cube_.for_each_neighbor(a, [&](Dim, NodeId b) { push(b); });
    }
    cascade();
  }
  // Rising phase: all removals at once, then one cascade.
  if (!removals.empty()) {
    for (const NodeId a : removals) faults_.mark_healthy(a);
    for (const NodeId a : removals) {
      push(a);
      cube_.for_each_neighbor(a, [&](Dim, NodeId b) { push(b); });
    }
    cascade();
  }
}

void SafetyOracle::retarget(const fault::FaultSet& target) {
  const obs::StageScope stage("oracle.retarget");
  SLC_EXPECT(target.num_nodes() == faults_.num_nodes());
  if (target == faults_) return;
  // Word-at-a-time symmetric difference into the reusable scratch set:
  // O(N/64) xor words instead of N is_faulty probes and a fresh
  // allocation per retarget — the sweep-engine entry point runs this
  // once per trial.
  if (delta_scratch_.num_nodes() != faults_.num_nodes()) {
    delta_scratch_ = fault::FaultSet(faults_.num_nodes());
  } else {
    delta_scratch_.clear();
  }
  fault::FaultSet& delta = delta_scratch_;
  faults_.for_each_difference(target, [&](NodeId a) { delta.mark_faulty(a); });
  // Past the cost-model crossover, rebuild — same fixed point either
  // way. Accounting contract: the fallback bumps `rebuilds` only; the
  // cascade counters (recomputes/level_changes/cascades) keep counting
  // incremental work exclusively, so cost-model consumers can compare
  // the two strategies without the rebuild polluting the cascade side.
  if (retarget_prefers_rebuild(delta.count(), cube_.num_nodes())) {
    faults_ = target;
    levels_ = compute_safety_levels(cube_, faults_);
    ++stats_.rebuilds;
    if (change_log_ != nullptr) {
      // The whole table was rewritten; report every node as changed so
      // log consumers resync fully (a rebuild is already O(N·n) work).
      for (NodeId a = 0; a < cube_.num_nodes(); ++a) {
        change_log_->push_back(a);
      }
    }
    return;
  }
  apply(delta);
}

}  // namespace slcube::core
