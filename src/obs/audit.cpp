#include "obs/audit.hpp"
#include "obs/profiler.hpp"

#include <sstream>
#include <string_view>

#include "common/bitops.hpp"

namespace slcube::obs {

namespace {

/// One class per core::RouteStatus name (core/unicast.cpp's to_string),
/// the one route-status vocabulary every producer emits.
enum class StatusClass {
  kOptimal,        // "delivered-optimal"
  kSuboptimal,     // "delivered-suboptimal"
  kRefused,        // "source-refused"
  kStuck,          // "stuck"
  kDroppedSource,  // "dropped-source"
  kDroppedNode,    // "dropped-node"
  kDroppedLink,    // "dropped-link"
  kUnknown,
};

StatusClass classify(std::string_view status) {
  if (status == "delivered-optimal") return StatusClass::kOptimal;
  if (status == "delivered-suboptimal") return StatusClass::kSuboptimal;
  if (status == "source-refused") return StatusClass::kRefused;
  if (status == "stuck") return StatusClass::kStuck;
  if (status == "dropped-source") return StatusClass::kDroppedSource;
  if (status == "dropped-node") return StatusClass::kDroppedNode;
  if (status == "dropped-link") return StatusClass::kDroppedLink;
  return StatusClass::kUnknown;
}

bool is_delivered(StatusClass c) {
  return c == StatusClass::kOptimal || c == StatusClass::kSuboptimal;
}

std::uint64_t pair_key(NodeId from, NodeId to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

std::size_t kind_slot(MsgKind k) {
  return k == MsgKind::kUnicast ? 1 : 0;
}

}  // namespace

AuditSink::AuditSink(AuditConfig config) : config_(config) {}

AuditSink::Lane& AuditSink::lane_locked() {
  return lanes_[std::this_thread::get_id()];
}

void AuditSink::violation(ViolationKind kind, std::string detail) {
  ++report_.violations_total;
  ++report_.violations_by_kind[static_cast<std::size_t>(kind)];
  if (report_.details.size() < config_.max_violation_details) {
    report_.details.push_back({kind, std::move(detail)});
  }
}

void AuditSink::on_event(const TraceEvent& ev) {
  const obs::StageScope stage("audit");
  const std::scoped_lock lock(mutex_);
  ++report_.events;
  Lane& lane = lane_locked();
  if (const auto* src = std::get_if<SourceDecisionEvent>(&ev)) {
    handle(lane, *src);
  } else if (const auto* hop = std::get_if<HopEvent>(&ev)) {
    handle(lane, *hop);
  } else if (const auto* done = std::get_if<RouteDoneEvent>(&ev)) {
    handle(lane, *done);
  } else if (const auto* round = std::get_if<GsRoundEvent>(&ev)) {
    handle(lane, *round);
  } else if (const auto* mis = std::get_if<MisrouteEvent>(&ev)) {
    handle(lane, *mis);
  } else if (const auto* summary = std::get_if<RouteSummaryEvent>(&ev)) {
    handle(lane, *summary);
  } else if (const auto* epoch = std::get_if<EpochPublishEvent>(&ev)) {
    ++report_.epochs_published;
    // An epoch publish IS fault churn (unless it carries no lineage —
    // epoch 0 or a no-op retarget barrier): tables decided on older
    // epochs are stale from here on, same as a node_fail event.
    if (epoch->churn != 0) {
      if (lane.wave_open) lane.wave_saw_fault_churn = true;
      if (lane.route_open) lane.route_churn |= kEpochChurn;
      lane.stale_churn |= kEpochChurn;
    }
  } else if (const auto* send = std::get_if<MessageSendEvent>(&ev)) {
    ++report_.sends;
    ++lane.sends[kind_slot(send->kind)][pair_key(send->from, send->to)];
  } else if (const auto* drop = std::get_if<MessageDropEvent>(&ev)) {
    ++report_.drops;
    ++report_.drops_by_reason[drop->reason];
    auto& outstanding =
        lane.sends[kind_slot(drop->kind)][pair_key(drop->from, drop->to)];
    if (outstanding > 0) {
      --outstanding;
      if (drop->kind == MsgKind::kUnicast && lane.route_open) {
        lane.lost = *drop;
      }
    } else {
      std::ostringstream ss;
      ss << "drop of " << to_string(drop->kind) << ' ' << drop->from << "->"
         << drop->to << " (" << drop->reason
         << ") with no matching prior send";
      violation(ViolationKind::kDropWithoutSend, ss.str());
    }
  } else if (std::holds_alternative<NodeFailEvent>(ev) ||
             std::holds_alternative<NodeRecoverEvent>(ev)) {
    // Fault churn relaxes the checks that assume a quiet network: the
    // GS round bound, the "stuck is impossible" rule and the Theorem-2
    // floor — the latter two stay suspended until a quiesced GS wave
    // proves re-stabilization (asynchronous cascades leave no marker in
    // the stream).
    if (lane.wave_open) lane.wave_saw_fault_churn = true;
    if (lane.route_open) lane.route_churn |= kNodeChurn;
    lane.stale_churn |= kNodeChurn;
  } else if (const auto* point = std::get_if<SweepPointEvent>(&ev)) {
    ++report_.sweep_points;
    report_.sweep_wall_ms.observe(point->wall_ms);
  }
}

void AuditSink::handle(Lane& lane, const SourceDecisionEvent& ev) {
  if (lane.route_open) {
    std::ostringstream ss;
    ss << "source_decision " << ev.source << "->" << ev.dest
       << " while route " << lane.source.source << "->" << lane.source.dest
       << " is still open";
    violation(ViolationKind::kBrokenChain, ss.str());
  }
  const std::uint32_t nav = ev.source ^ ev.dest;
  if (ev.hamming != bits::popcount(nav)) {
    std::ostringstream ss;
    ss << "source_decision " << ev.source << "->" << ev.dest << " claims H="
       << ev.hamming << " but H(s,d)=" << bits::popcount(nav);
    violation(ViolationKind::kFlagsInconsistent, ss.str());
  }
  if (config_.dimension > 0 && config_.dimension < 32 &&
      (nav >> config_.dimension) != 0) {
    std::ostringstream ss;
    ss << "source_decision " << ev.source << "->" << ev.dest
       << " outside the " << config_.dimension << "-cube";
    violation(ViolationKind::kBrokenChain, ss.str());
  }
  if (ev.spare) {
    if (!ev.c3) {
      std::ostringstream ss;
      ss << "spare launch " << ev.source << "->" << ev.dest << " without C3";
      violation(ViolationKind::kFlagsInconsistent, ss.str());
    }
    if (ev.chosen_dim < 0) {
      std::ostringstream ss;
      ss << "spare launch " << ev.source << "->" << ev.dest
         << " with no chosen dimension";
      violation(ViolationKind::kSpareMisuse, ss.str());
    }
  }
  if (ev.egs && ev.hamming > 0) {
    // Two-view consistency (Section 4.1). The footnote-3 caveat: the
    // self-view guarantee excludes the far ends of the source's own
    // faulty links, so C1 must be forced off for such a destination;
    // otherwise C1 is exactly "self-view level covers the distance".
    if (ev.dest_link_faulty && ev.hamming != 1) {
      std::ostringstream ss;
      ss << "EGS source " << ev.source << "->" << ev.dest
         << " claims the destination is across an adjacent faulty link "
         << "but H=" << ev.hamming << " (an adjacent node has H=1)";
      violation(ViolationKind::kFlagsInconsistent, ss.str());
    }
    if (ev.dest_link_faulty && ev.c1) {
      std::ostringstream ss;
      ss << "EGS source " << ev.source << "->" << ev.dest
         << " asserts C1 for a dead-link destination (footnote 3 forces "
         << "the optimal guarantee off)";
      violation(ViolationKind::kFlagsInconsistent, ss.str());
    }
    if (!ev.dest_link_faulty && ev.c1 != (ev.self_level >= ev.hamming)) {
      std::ostringstream ss;
      ss << "EGS source " << ev.source << "->" << ev.dest << " reports C1="
         << (ev.c1 ? "true" : "false") << " but self-view level "
         << ev.self_level << " vs H=" << ev.hamming << " implies "
         << (ev.self_level >= ev.hamming ? "true" : "false");
      violation(ViolationKind::kFlagsInconsistent, ss.str());
    }
  }
  lane.route_open = true;
  lane.route_churn = 0;
  lane.lost.reset();
  lane.source = ev;
  lane.hops.clear();
}

void AuditSink::handle(Lane& lane, const HopEvent& ev) {
  // Status-independent aggregation + structural checks first, so even
  // orphan hops land in the heatmap.
  ++report_.hops;
  if (ev.preferred) {
    ++report_.preferred_by_dim[ev.dim];
  } else {
    ++report_.spare_hops;
    ++report_.spare_by_dim[ev.dim];
  }
  if (ev.to != bits::flip(ev.from, ev.dim)) {
    std::ostringstream ss;
    ss << "hop " << ev.from << "->" << ev.to
       << " endpoints do not differ in dim " << ev.dim;
    violation(ViolationKind::kBrokenChain, ss.str());
  }
  if (config_.dimension > 0 && ev.dim >= config_.dimension) {
    std::ostringstream ss;
    ss << "hop " << ev.from << "->" << ev.to << " along dim " << ev.dim
       << " outside the " << config_.dimension << "-cube";
    violation(ViolationKind::kBrokenChain, ss.str());
  }
  if (ev.nav_after != (ev.nav_before ^ bits::unit(ev.dim))) {
    std::ostringstream ss;
    ss << "hop " << ev.from << "->" << ev.to << " dim " << ev.dim
       << ": nav_after " << ev.nav_after << " != nav_before " << ev.nav_before
       << " with bit " << ev.dim << " toggled";
    violation(ViolationKind::kNavBitNotToggled, ss.str());
  } else if (ev.preferred == bits::test(ev.nav_before, ev.dim)) {
    // Toggle is consistent; direction must match the hop kind: preferred
    // clears a navigation bit, the spare detour sets one.
  } else if (ev.preferred) {
    std::ostringstream ss;
    ss << "preferred hop " << ev.from << "->" << ev.to << " dim " << ev.dim
       << " does not clear a navigation bit (nav_before " << ev.nav_before
       << ')';
    violation(ViolationKind::kNavBitNotToggled, ss.str());
  } else {
    std::ostringstream ss;
    ss << "spare hop " << ev.from << "->" << ev.to << " dim " << ev.dim
       << " re-sets an already-pending navigation bit (nav_before "
       << ev.nav_before << ')';
    violation(ViolationKind::kSpareMisuse, ss.str());
  }

  if (!lane.route_open) {
    std::ostringstream ss;
    ss << "hop " << ev.from << "->" << ev.to
       << " with no open route (missing source_decision)";
    violation(ViolationKind::kBrokenChain, ss.str());
    return;
  }

  if (lane.hops.empty()) {
    if (ev.from != lane.source.source) {
      std::ostringstream ss;
      ss << "first hop starts at " << ev.from << ", route source is "
         << lane.source.source;
      violation(ViolationKind::kBrokenChain, ss.str());
    }
    const std::uint32_t nav0 = lane.source.source ^ lane.source.dest;
    if (ev.nav_before != nav0) {
      std::ostringstream ss;
      ss << "first hop nav_before " << ev.nav_before
         << " != source navigation vector " << nav0;
      violation(ViolationKind::kNavBitNotToggled, ss.str());
    }
    if (lane.source.chosen_dim >= 0 &&
        ev.dim != static_cast<Dim>(lane.source.chosen_dim)) {
      std::ostringstream ss;
      ss << "first hop dim " << ev.dim << " != source chosen_dim "
         << lane.source.chosen_dim;
      violation(ViolationKind::kFlagsInconsistent, ss.str());
    }
    if (ev.preferred == lane.source.spare) {
      std::ostringstream ss;
      ss << "first hop preferred=" << (ev.preferred ? "true" : "false")
         << " contradicts source spare="
         << (lane.source.spare ? "true" : "false");
      violation(ViolationKind::kSpareMisuse, ss.str());
    }
    if (!ev.preferred) ++report_.spare_by_hamming[lane.source.hamming];
  } else {
    const HopEvent& prev = lane.hops.back();
    if (ev.from != prev.to) {
      std::ostringstream ss;
      ss << "hop chain broken: hop from " << ev.from
         << " but previous hop landed at " << prev.to;
      violation(ViolationKind::kBrokenChain, ss.str());
    }
    if (ev.nav_before != prev.nav_after) {
      std::ostringstream ss;
      ss << "navigation vector not carried: nav_before " << ev.nav_before
         << " != previous nav_after " << prev.nav_after;
      violation(ViolationKind::kNavBitNotToggled, ss.str());
    }
    if (!ev.preferred) {
      std::ostringstream ss;
      ss << "spare hop " << ev.from << "->" << ev.to
         << " beyond the first hop (only the source may take the detour)";
      violation(ViolationKind::kSpareMisuse, ss.str());
    }
  }
  lane.hops.push_back(ev);
}

void AuditSink::handle(Lane& lane, const RouteDoneEvent& ev) {
  ++report_.routes;
  ++report_.routes_by_status[ev.status];
  if (!lane.route_open) {
    std::ostringstream ss;
    ss << "route_done " << ev.source << "->" << ev.dest << " (" << ev.status
       << ") with no open route";
    violation(ViolationKind::kBrokenChain, ss.str());
    return;
  }
  close_route(lane, ev);
}

void AuditSink::close_route(Lane& lane, const RouteDoneEvent& done) {
  const SourceDecisionEvent& src = lane.source;
  const unsigned h = src.hamming;
  const auto nhops = static_cast<unsigned>(lane.hops.size());
  const StatusClass cls = classify(done.status);

  if (done.source != src.source || done.dest != src.dest) {
    std::ostringstream ss;
    ss << "route_done " << done.source << "->" << done.dest
       << " does not match open route " << src.source << "->" << src.dest;
    violation(ViolationKind::kBrokenChain, ss.str());
  }

  if (is_delivered(cls)) {
    if (done.hops != nhops) {
      std::ostringstream ss;
      ss << "route " << src.source << "->" << src.dest << " reports "
         << done.hops << " hops but " << nhops << " hop events were seen";
      violation(ViolationKind::kHopCountMismatch, ss.str());
    }
    const bool spare = src.spare;
    const unsigned expected = h + (spare ? 2u : 0u);
    if (cls == StatusClass::kOptimal && spare) {
      violation(ViolationKind::kSpareMisuse,
                "delivered-optimal route launched on the spare detour");
    }
    if (src.egs && src.dest_link_faulty && !spare) {
      // Footnote 3, delivery side: the direct link to the destination is
      // dead, so the only way home is the H + 2 spare detour around it —
      // a delivery without the spare first hop crossed the dead link.
      std::ostringstream ss;
      ss << "EGS route " << src.source << "->" << src.dest
         << " delivered to a dead-link destination without the H+2 "
         << "spare detour";
      violation(ViolationKind::kSpareMisuse, ss.str());
    }
    if (cls == StatusClass::kSuboptimal && !spare) {
      violation(ViolationKind::kSpareMisuse,
                "delivered-suboptimal route without a spare first hop");
    }
    if (done.hops != expected) {
      std::ostringstream ss;
      ss << "route " << src.source << "->" << src.dest << " (H=" << h
         << (spare ? ", spare" : "") << ") delivered in " << done.hops
         << " hops, expected exactly " << expected;
      violation(ViolationKind::kHopCountMismatch, ss.str());
    }
    if (nhops > 0) {
      const HopEvent& last = lane.hops.back();
      if (last.to != done.dest) {
        std::ostringstream ss;
        ss << "delivered route ends at " << last.to << ", destination is "
           << done.dest;
        violation(ViolationKind::kBrokenChain, ss.str());
      }
      if (last.nav_after != 0) {
        std::ostringstream ss;
        ss << "delivered route " << src.source << "->" << src.dest
           << " ends with non-empty navigation vector " << last.nav_after;
        violation(ViolationKind::kNavBitNotToggled, ss.str());
      }
    }
    if (spare) {
      // C3 was checked at the source event; the detour is taken only
      // when no optimal first hop existed.
      if (src.c1 || src.c2) {
        std::ostringstream ss;
        ss << "spare detour " << src.source << "->" << src.dest
           << " taken although C1/C2 offered an optimal first hop";
        violation(ViolationKind::kFlagsInconsistent, ss.str());
      }
    } else if (h > 0 && !(src.c1 || src.c2)) {
      std::ostringstream ss;
      ss << "optimal delivery " << src.source << "->" << src.dest
         << " although neither C1 nor C2 held";
      violation(ViolationKind::kFlagsInconsistent, ss.str());
    }
    for (const HopEvent& hop : lane.hops) {
      // Theorem-2 floor: the chosen neighbor's advertised level covers
      // the distance that remains after the hop (holds for spare hops
      // too — their threshold is H+1 = |nav_after|). After node churn
      // a holder may decide on stale registers and pick a neighbor below
      // the floor.
      const unsigned remaining = bits::popcount(hop.nav_after);
      if (((lane.route_churn | lane.stale_churn) & kNodeChurn) == 0 &&
          hop.level < remaining) {
        std::ostringstream ss;
        ss << "hop " << hop.from << "->" << hop.to << " advertised level "
           << hop.level << " below remaining distance " << remaining;
        violation(ViolationKind::kHopLevelTooLow, ss.str());
      }
    }
    report_.hops_per_route.observe(static_cast<double>(done.hops));
  } else if (cls == StatusClass::kRefused ||
             cls == StatusClass::kDroppedSource) {
    // Nothing was sent: no hop and no chosen first hop.
    if (nhops != 0 || done.hops != 0) {
      std::ostringstream ss;
      ss << done.status << " route " << src.source << "->" << src.dest
         << " has hops (" << done.hops << " reported, " << nhops
         << " hop events)";
      violation(ViolationKind::kHopCountMismatch, ss.str());
    }
    if (src.chosen_dim != -1) {
      std::ostringstream ss;
      ss << done.status << " route " << src.source << "->" << src.dest
         << " records chosen_dim " << src.chosen_dim;
      violation(ViolationKind::kFlagsInconsistent, ss.str());
    }
    // The source refuses iff none of C1/C2/C3 holds.
    if (cls == StatusClass::kRefused && (src.c1 || src.c2 || src.c3)) {
      std::ostringstream ss;
      ss << "source refused " << src.source << "->" << src.dest
         << " although C1/C2/C3 offered a move (c1=" << src.c1
         << " c2=" << src.c2 << " c3=" << src.c3 << ')';
      violation(ViolationKind::kFlagsInconsistent, ss.str());
    }
  } else if (cls != StatusClass::kUnknown) {
    // Stuck at a holder, or dropped in flight: the hops that landed.
    if (done.hops != nhops) {
      std::ostringstream ss;
      ss << done.status << " route " << src.source << "->" << src.dest
         << " reports " << done.hops << " hops but " << nhops
         << " hop events were seen";
      violation(ViolationKind::kHopCountMismatch, ss.str());
    }
    if (cls == StatusClass::kStuck) {
      if (lane.route_churn == 0 && lane.stale_churn == 0) {
        std::ostringstream ss;
        ss << "route " << src.source << "->" << src.dest << " stuck after "
           << done.hops << " hops with no mid-route fault churn (impossible "
           << "over a consistent level table)";
        violation(ViolationKind::kStuckRoute, ss.str());
      }
    } else {
      // The message died in flight: its send/drop pair, sent by the last
      // node reached, for the stated cause.
      const NodeId holder =
          lane.hops.empty() ? src.source : lane.hops.back().to;
      const std::string_view why =
          cls == StatusClass::kDroppedLink ? "faulty-link" : "dead-node";
      if (!lane.lost || lane.lost->from != holder ||
          lane.lost->reason != why) {
        std::ostringstream ss;
        ss << done.status << " route " << src.source << "->" << src.dest
           << " shows no " << why << " drop of a message sent by " << holder;
        violation(ViolationKind::kBrokenChain, ss.str());
      }
    }
  }
  // Unknown statuses are counted in routes_by_status and left unchecked.

  lane.last_route_valid = true;
  lane.last_route_source = done.source;
  lane.last_route_dest = done.dest;
  lane.last_route_status = done.status;
  lane.last_route_hops = done.hops;
  lane.last_route_exists = true;
  lane.last_route_summarized = false;
  lane.route_open = false;
  lane.hops.clear();
}

void AuditSink::handle(Lane& lane, const MisrouteEvent& ev) {
  const std::string_view cls = ev.cls;
  ++report_.misroutes_by_class[std::string(cls)];
  if (cls != "none") ++report_.misroutes;

  const bool known = cls == "none" || cls == "false-reject-source" ||
                     cls == "optimism-drop" || cls == "pessimism-detour";
  if (!known) {
    std::ostringstream ss;
    ss << "misroute " << ev.source << "->" << ev.dest
       << " with unknown class \"" << cls << '"';
    violation(ViolationKind::kMisrouteUnattributed, ss.str());
  }
  if (!lane.last_route_valid || ev.source != lane.last_route_source ||
      ev.dest != lane.last_route_dest) {
    std::ostringstream ss;
    ss << "misroute " << ev.source << "->" << ev.dest << " (" << cls
       << ") does not follow a closed route for that pair";
    violation(ViolationKind::kMisrouteUnattributed, ss.str());
    return;
  }
  lane.last_route_valid = false;  // one postmortem per route

  // Class-internal consistency: only a ground-truth drop explains an
  // optimism-drop, and a false reject presupposes ground feasibility.
  if ((cls == "optimism-drop") != (ev.drop_node >= 0)) {
    std::ostringstream ss;
    ss << "misroute " << ev.source << "->" << ev.dest << " class " << cls
       << " inconsistent with drop_node " << ev.drop_node;
    violation(ViolationKind::kFlagsInconsistent, ss.str());
  }
  if (cls == "false-reject-source" && !ev.ground_feasible) {
    std::ostringstream ss;
    ss << "misroute " << ev.source << "->" << ev.dest
       << " claims a false reject but ground truth was infeasible";
    violation(ViolationKind::kFlagsInconsistent, ss.str());
  }
  // Cross-check against the closed route. The traced route is the PLAN
  // (diagnosed tables); the postmortem is the ground truth. A plan that
  // delivered and survived replay must agree on the hop count; a drop
  // mid-replay (the optimism-drop signature) must have died strictly
  // before the planned end.
  if (is_delivered(classify(lane.last_route_status))) {
    if (ev.drop_node < 0 && ev.hops_taken != lane.last_route_hops) {
      std::ostringstream ss;
      ss << "misroute " << ev.source << "->" << ev.dest << " walked "
         << ev.hops_taken << " hops but the route reported "
         << lane.last_route_hops;
      violation(ViolationKind::kHopCountMismatch, ss.str());
    }
    if (ev.drop_node >= 0 && ev.hops_taken >= lane.last_route_hops) {
      std::ostringstream ss;
      ss << "misroute " << ev.source << "->" << ev.dest << " dropped at "
         << ev.drop_node << " after " << ev.hops_taken
         << " hops, not strictly inside the " << lane.last_route_hops
         << "-hop plan";
      violation(ViolationKind::kHopCountMismatch, ss.str());
    }
  }
}

void AuditSink::handle(Lane& lane, const RouteSummaryEvent& ev) {
  if (!ev.promoted) {
    // Breadcrumb-only: no chain exists by design. Counted, reconciled
    // against the sampler's counters, never flagged as truncated.
    ++report_.breadcrumb_routes;
    return;
  }
  ++report_.promoted_routes;
  ++report_.promoted_by_reason[ev.reason];
  if (ev.ground_epoch < ev.decision_epoch) {
    std::ostringstream ss;
    ss << "route_summary " << ev.route_id << " ground epoch "
       << ev.ground_epoch << " older than decision epoch "
       << ev.decision_epoch;
    violation(ViolationKind::kSummaryMismatch, ss.str());
  }
  if (!lane.last_route_exists || lane.last_route_summarized) {
    std::ostringstream ss;
    ss << "promoted route_summary " << ev.route_id << " (" << ev.status
       << ") does not follow a full route chain";
    violation(ViolationKind::kSummaryMismatch, ss.str());
    return;
  }
  lane.last_route_summarized = true;
  if (std::string_view(lane.last_route_status) != ev.status) {
    std::ostringstream ss;
    ss << "route_summary " << ev.route_id << " status \"" << ev.status
       << "\" contradicts the chain's \"" << lane.last_route_status << '"';
    violation(ViolationKind::kSummaryMismatch, ss.str());
  }
  if (ev.hops != lane.last_route_hops) {
    std::ostringstream ss;
    ss << "route_summary " << ev.route_id << " reports " << ev.hops
       << " hops but the chain closed with " << lane.last_route_hops;
    violation(ViolationKind::kSummaryMismatch, ss.str());
  }
}

void AuditSink::handle(Lane& lane, const GsRoundEvent& ev) {
  if (lane.wave_open && ev.round == 0 && lane.wave_next_round != 0) {
    // A new wave began without the previous one quiescing — normal for
    // back-to-back periodic schedules; close the old wave unchecked.
    close_wave(lane, lane.wave_next_round - 1, /*quiesced=*/false);
  }
  if (!lane.wave_open) {
    lane.wave_open = true;
    lane.wave_egs = ev.egs;
    lane.wave_periodic = ev.periodic;
    lane.wave_saw_fault_churn = false;
    lane.wave_next_round = ev.round + 1;
    if (ev.round != 0) {
      std::ostringstream ss;
      ss << "GS wave starts at round " << ev.round << " (expected 0)";
      violation(ViolationKind::kGsRoundOrder, ss.str());
    }
  } else {
    if (ev.round != lane.wave_next_round) {
      std::ostringstream ss;
      ss << "GS round " << ev.round << " out of order (expected "
         << lane.wave_next_round << ')';
      violation(ViolationKind::kGsRoundOrder, ss.str());
    }
    if (ev.egs != lane.wave_egs || ev.periodic != lane.wave_periodic) {
      std::ostringstream ss;
      ss << "GS round " << ev.round
         << " flips the wave's egs/periodic identity mid-sequence";
      violation(ViolationKind::kGsRoundOrder, ss.str());
    }
    lane.wave_next_round = ev.round + 1;
  }

  auto& acc = report_.gs_curve[ev.round];
  acc.first += ev.changed;
  acc.second += 1;
  if (ev.round > report_.gs_max_round) report_.gs_max_round = ev.round;

  // A quiet round closes a stabilization wave; periodic waves keep
  // running (useful-update counts can legitimately rebound after churn).
  if (ev.changed == 0 && !lane.wave_periodic) {
    close_wave(lane, ev.round, /*quiesced=*/true);
  }
}

void AuditSink::close_wave(Lane& lane, unsigned final_round, bool quiesced) {
  ++report_.gs_waves;
  // Corollary to Property 1: with a quiet network, GS stabilizes within
  // n-1 rounds. `final_round` is the index of the quiet round, which
  // equals the number of changing rounds, so > n-1 means the bound broke.
  if (quiesced && !lane.wave_periodic && !lane.wave_saw_fault_churn &&
      config_.dimension > 0 && final_round >= config_.dimension) {
    std::ostringstream ss;
    ss << (lane.wave_egs ? "EGS" : "GS") << " wave took " << final_round
       << " changing rounds, above the n-1 = " << (config_.dimension - 1)
       << " bound with no mid-wave fault churn";
    violation(ViolationKind::kGsBoundExceeded, ss.str());
  }
  // A quiesced synchronous wave recomputed every level from live state:
  // tables are consistent again and the stuck rule re-arms.
  if (quiesced && !lane.wave_periodic) lane.stale_churn = 0;
  lane.wave_open = false;
}

void AuditSink::finish() {
  const std::scoped_lock lock(mutex_);
  if (finished_) return;
  finished_ = true;
  for (auto& [tid, lane] : lanes_) {
    (void)tid;
    if (lane.route_open) {
      std::ostringstream ss;
      ss << "stream ended with route " << lane.source.source << "->"
         << lane.source.dest << " still open after " << lane.hops.size()
         << " hops";
      violation(ViolationKind::kTruncatedRoute, ss.str());
      lane.route_open = false;
      lane.hops.clear();
    }
    if (lane.wave_open) {
      // Mid-wave truncation: close it unchecked (periodic schedules end
      // this way by design; a cut synchronous wave is a producer crash,
      // which the route-level truncation reporting already surfaces).
      close_wave(lane, lane.wave_next_round, /*quiesced=*/false);
    }
  }
}

void AuditSink::reconcile_sampling(std::uint64_t promoted,
                                   std::uint64_t breadcrumb_only,
                                   std::uint64_t shed_events) {
  const std::scoped_lock lock(mutex_);
  if (report_.promoted_routes != promoted) {
    std::ostringstream ss;
    ss << "sampler promoted " << promoted << " routes but the stream shows "
       << report_.promoted_routes << " promoted summaries";
    violation(ViolationKind::kSummaryMismatch, ss.str());
  }
  if (report_.routes != promoted) {
    std::ostringstream ss;
    ss << "sampled stream carries " << report_.routes
       << " full chains, sampler promoted " << promoted;
    violation(ViolationKind::kSummaryMismatch, ss.str());
  }
  // Breadcrumb-only routes may or may not have emitted summaries
  // (emit_breadcrumb_summaries); when they did, the counts must agree.
  if (report_.breadcrumb_routes != 0 &&
      report_.breadcrumb_routes != breadcrumb_only) {
    std::ostringstream ss;
    ss << "sampler kept " << breadcrumb_only
       << " breadcrumb-only routes but the stream shows "
       << report_.breadcrumb_routes << " unpromoted summaries";
    violation(ViolationKind::kSummaryMismatch, ss.str());
  }
  report_.breadcrumb_routes = breadcrumb_only;
  report_.events_lost += shed_events;
}

void AuditSink::note_events_lost(std::uint64_t lost) {
  const std::scoped_lock lock(mutex_);
  report_.events_lost += lost;
}

AuditReport AuditSink::report() const {
  const std::scoped_lock lock(mutex_);
  return report_;
}

std::uint64_t AuditSink::violation_count() const {
  const std::scoped_lock lock(mutex_);
  return report_.violations_total;
}

AuditReport audit_jsonl_file(const std::string& path,
                             const AuditConfig& config, std::size_t* malformed,
                             std::size_t* unknown) {
  AuditSink sink(config);
  for (const TraceEvent& ev : read_trace_file(path, malformed, unknown)) {
    sink.on_event(ev);
  }
  sink.finish();
  return sink.report();
}

AuditReport audit_ring(const RingBufferSink& ring, const AuditConfig& config) {
  AuditSink sink(config);
  for (const TraceEvent& ev : ring.snapshot()) sink.on_event(ev);
  sink.note_events_lost(ring.dropped());
  sink.finish();
  return sink.report();
}

}  // namespace slcube::obs
