#include "core/egs_oracle.hpp"
#include "obs/profiler.hpp"

#include <algorithm>
#include <array>

namespace slcube::core {

namespace {

/// The pseudo-fault set the public view is the fixed point of: real
/// faults plus every healthy node with an adjacent faulty link (N2),
/// which is the real faults plus both ends of every faulty link.
fault::FaultSet make_pseudo(const topo::Hypercube& cube,
                            const fault::FaultSet& faults,
                            const fault::LinkFaultSet& links) {
  fault::FaultSet pseudo = faults;
  for (const auto& [a, d] : links.faulty_links()) {
    pseudo.mark_faulty(a);
    pseudo.mark_faulty(cube.neighbor(a, d));
  }
  return pseudo;
}

}  // namespace

EgsOracle::EgsOracle(const topo::Hypercube& cube)
    : cube_(cube),
      faults_(cube.num_nodes()),
      links_(cube),
      pseudo_(cube),
      self_view_(cube.dimension(), cube.num_nodes(),
                 static_cast<Level>(cube.dimension())),
      in_n2_(static_cast<std::size_t>(cube.num_nodes())),
      dirty_mark_(static_cast<std::size_t>(cube.num_nodes())) {
  pseudo_.set_change_log(&changed_);
}

EgsOracle::EgsOracle(const topo::Hypercube& cube,
                     const fault::FaultSet& faults,
                     const fault::LinkFaultSet& link_faults)
    : cube_(cube),
      faults_(faults),
      links_(link_faults),
      pseudo_(cube, make_pseudo(cube, faults, link_faults)),
      self_view_(pseudo_.levels()),
      in_n2_(static_cast<std::size_t>(cube.num_nodes())),
      dirty_mark_(static_cast<std::size_t>(cube.num_nodes())) {
  SLC_EXPECT(faults.num_nodes() == cube.num_nodes());
  SLC_EXPECT(link_faults.cube().num_nodes() == cube.num_nodes());
  pseudo_.set_change_log(&changed_);
  // N2 from the faulty links' endpoints: a healthy endpoint is in N2, and
  // one with several faulty links is met once per link.
  for (const auto& [a, d] : links_.faulty_links()) {
    for (const NodeId x : {a, cube_.neighbor(a, d)}) {
      if (faults_.is_faulty(x) || in_n2_[x]) continue;
      in_n2_[x] = true;
      self_view_[x] = self_level_of(x);
    }
  }
  stats_ = {};  // counters report post-construction events only
}

void EgsOracle::mark_dirty(NodeId a) {
  if (!dirty_mark_[a]) {
    dirty_mark_[a] = true;
    dirty_.push_back(a);
  }
}

Level EgsOracle::self_level_of(NodeId a) {
  // Faulty and healthy-non-N2 nodes carry their public level (0 for the
  // former); only N2 nodes run their own NODE_STATUS round.
  const std::span<const Level> public_levels = pseudo_.level_bytes();
  if (!in_n2_[a]) return public_levels[a];
  ++stats_.self_recomputes;
  const unsigned n = cube_.dimension();
  std::array<Level, topo::Hypercube::kMaxDimension> seq{};
  for (Dim d = 0; d < n; ++d) {
    seq[d] = links_.is_faulty(a, d) ? Level{0}
                                    : public_levels[cube_.neighbor(a, d)];
  }
  std::sort(seq.begin(), seq.begin() + n);
  return node_status(std::span<const Level>(seq.data(), n), n);
}

void EgsOracle::apply_toggles(std::span<const NodeId> node_toggles,
                              std::span<const LinkToggle> link_toggles) {
  const obs::StageScope stage("egs.apply");
  // Phase 1 — toggle the real state, collecting `touched_`: the nodes
  // whose pseudo status or N2 membership may have moved. Dedup matters:
  // the pseudo delta below must list each node at most once.
  touched_.clear();
  const auto touch = [&](NodeId x) {
    if (!dirty_mark_[x]) {
      dirty_mark_[x] = true;
      dirty_.push_back(x);
      touched_.push_back(x);
    }
  };
  for (const NodeId a : node_toggles) {
    SLC_EXPECT(cube_.contains(a));
    if (faults_.is_faulty(a)) {
      faults_.mark_healthy(a);
    } else {
      faults_.mark_faulty(a);
    }
    touch(a);
    ++stats_.node_events;
  }
  for (const auto& [a, d] : link_toggles) {
    const NodeId b = cube_.neighbor(a, d);
    if (links_.is_faulty(a, d)) {
      links_.mark_healthy(a, d);
    } else {
      links_.mark_faulty(a, d);
    }
    touch(a);
    touch(b);
    ++stats_.link_events;
  }

  // Phase 2 — restore the public view. The pseudo set changed exactly
  // where a touched node's membership (fault ∪ N2) flipped.
  changed_.clear();
  to_add_.clear();
  to_remove_.clear();
  for (const NodeId x : touched_) {
    const bool want = faults_.is_faulty(x) || links_.touches(x);
    if (want == pseudo_.faults().is_faulty(x)) continue;
    (want ? to_add_ : to_remove_).push_back(x);
  }
  if (to_add_.size() + to_remove_.size() <= 4) {
    // Single-event hot path: one cascade per pseudo toggle.
    for (const NodeId x : to_add_) pseudo_.add_fault(x);
    for (const NodeId x : to_remove_) pseudo_.remove_fault(x);
  } else {
    // One falling and one rising cascade, each seeded in ascending node
    // order (perfbench's churn-q16 pins the resulting recompute count).
    std::sort(to_add_.begin(), to_add_.end());
    std::sort(to_remove_.begin(), to_remove_.end());
    pseudo_.apply(to_add_, to_remove_);
  }

  // Phase 3 — N2 membership bookkeeping for the touched nodes.
  for (const NodeId x : touched_) {
    const bool now = faults_.is_healthy(x) && links_.touches(x);
    if (now != in_n2_[x]) {
      in_n2_[x] = now;
      if (now) {
        ++stats_.n2_enters;
      } else {
        ++stats_.n2_exits;
      }
    }
  }

  // Phase 4 — refresh the self view on the dirty set: touched nodes,
  // nodes whose stored public level moved, and N2 nodes adjacent to one
  // of those (the only nodes whose NODE_STATUS inputs moved).
  for (const NodeId c : changed_) {
    mark_dirty(c);
    cube_.for_each_neighbor(c, [&](Dim, NodeId b) {
      if (in_n2_[b]) mark_dirty(b);
    });
  }
  for (const NodeId x : dirty_) {
    dirty_mark_[x] = false;
    self_view_[x] = self_level_of(x);
    ++stats_.self_refreshes;
  }
  dirty_.clear();
}

void EgsOracle::add_fault(NodeId a) {
  SLC_EXPECT_MSG(faults_.is_healthy(a), "add_fault on an already-faulty node");
  const NodeId one[] = {a};
  apply_toggles(one, {});
}

void EgsOracle::remove_fault(NodeId a) {
  SLC_EXPECT_MSG(faults_.is_faulty(a), "remove_fault on a healthy node");
  const NodeId one[] = {a};
  apply_toggles(one, {});
}

void EgsOracle::fail_link(NodeId a, Dim d) {
  SLC_EXPECT_MSG(!links_.is_faulty(a, d), "fail_link on a faulty link");
  const LinkToggle one[] = {{a, d}};
  apply_toggles({}, one);
}

void EgsOracle::recover_link(NodeId a, Dim d) {
  SLC_EXPECT_MSG(links_.is_faulty(a, d), "recover_link on a healthy link");
  const LinkToggle one[] = {{a, d}};
  apply_toggles({}, one);
}

void EgsOracle::apply(std::span<const NodeId> node_toggles,
                      std::span<const LinkToggle> link_toggles) {
  if (node_toggles.empty() && link_toggles.empty()) return;
  apply_toggles(node_toggles, link_toggles);
}

}  // namespace slcube::core
