#include "sim/protocol_gs.hpp"

#include <span>

namespace slcube::sim {

namespace {

/// NODE_STATUS on node a's registers: the level its local view implies.
core::Level local_node_status(const Network& net, NodeId a) {
  const auto sorted = net.sorted_registers(a);
  return core::node_status(
      std::span<const core::Level>(sorted.data(), sorted.size()),
      net.cube().dimension());
}

/// Announce `a`'s current level to every healthy neighbor.
std::uint64_t announce(Network& net, NodeId a) {
  std::uint64_t sent = 0;
  net.cube().for_each_neighbor(a, [&](Dim, NodeId b) {
    if (net.faults().is_healthy(b)) {
      net.send(a, b, LevelUpdate{a, net.level_of(a)});
      ++sent;
    }
  });
  return sent;
}

/// Deliver every pending LevelUpdate into the receivers' registers.
void drain_updates(Network& net) {
  net.run([&](const Scheduled& ev) {
    const auto& update = std::get<LevelUpdate>(ev.envelope.body);
    const Dim d = bits::lowest_set(ev.envelope.to ^ update.from);
    net.set_neighbor_register(ev.envelope.to, d, update.level);
    return true;
  });
}

/// The state-change-driven cascade step (Section 2.2), shared by failure
/// and recovery stabilization: recompute `a` from its registers and, iff
/// its level moved, announce the new value — the message-passing twin of
/// core::SafetyOracle's worklist cascade.
void recompute_and_cascade(Network& net, NodeId a, std::uint64_t& messages) {
  const core::Level updated = local_node_status(net, a);
  if (updated != net.level_of(a)) {
    net.set_level(a, updated);
    messages += announce(net, a);
  }
}

/// Drain the queue, recording each LevelUpdate and cascading at the
/// receiver, until the network quiesces.
void drain_and_cascade(Network& net, std::uint64_t& messages) {
  net.run([&](const Scheduled& ev) {
    const auto& update = std::get<LevelUpdate>(ev.envelope.body);
    const NodeId a = ev.envelope.to;
    const Dim d = bits::lowest_set(a ^ update.from);
    net.set_neighbor_register(a, d, update.level);
    recompute_and_cascade(net, a, messages);
    return true;
  });
}

/// One GsRoundEvent per completed announcement-recompute round.
void emit_round(Network& net, unsigned round, std::uint64_t changed,
                std::uint64_t messages, bool egs, bool periodic = false) {
  if (net.trace() == nullptr) return;
  obs::GsRoundEvent ev;
  ev.round = round;
  ev.changed = changed;
  ev.messages = messages;
  ev.sim_time = net.now();
  ev.egs = egs;
  ev.periodic = periodic;
  net.trace()->on_event(ev);
}

/// Discipline 1's rounds, shared by GS and EGS: every healthy node
/// announces, all announcements are delivered, then every iterating node
/// recomputes from its fresh registers, until a round changes nothing.
/// Under `egs` the N2 nodes self-declare 0 before the first wave and stay
/// pinned there while the N1 nodes iterate.
SyncGsResult run_rounds(Network& net, bool egs) {
  SLC_EXPECT_MSG(net.idle(), "network must be idle before synchronous GS");
  SyncGsResult result;
  const auto& cube = net.cube();
  if (egs) {
    for (NodeId a = 0; a < cube.num_nodes(); ++a) {
      if (net.in_n2(a)) net.set_level(a, 0);
    }
  }
  for (;;) {
    // Announcement wave ...
    std::uint64_t round_messages = 0;
    for (NodeId a = 0; a < cube.num_nodes(); ++a) {
      if (net.faults().is_healthy(a)) round_messages += announce(net, a);
    }
    result.messages += round_messages;
    drain_updates(net);
    // ... then everyone recomputes from the fresh registers.
    std::uint64_t changed = 0;
    for (NodeId a = 0; a < cube.num_nodes(); ++a) {
      if (net.faults().is_faulty(a) || (egs && net.in_n2(a))) continue;
      const core::Level updated = local_node_status(net, a);
      if (updated != net.level_of(a)) {
        net.set_level(a, updated);
        ++changed;
      }
    }
    emit_round(net, result.rounds, changed, round_messages, egs);
    if (changed == 0) break;
    ++result.rounds;
  }
  result.finished_at = net.now();
  return result;
}

}  // namespace

SyncGsResult run_gs_synchronous(Network& net) {
  return run_rounds(net, /*egs=*/false);
}

SyncGsResult run_egs_synchronous(Network& net) {
  SyncGsResult result = run_rounds(net, /*egs=*/true);
  // The last EGS round: each N2 node runs NODE_STATUS once on its own
  // view. No announcement — the result is the node's private self view.
  for (NodeId a = 0; a < net.cube().num_nodes(); ++a) {
    if (net.in_n2(a)) net.set_level(a, local_node_status(net, a));
  }
  return result;
}

AsyncGsResult stabilize_after_failures(
    Network& net, const std::vector<NodeId>& newly_failed) {
  SLC_EXPECT_MSG(net.idle(), "network must be idle before failure injection");
  AsyncGsResult result;
  for (const NodeId dead : newly_failed) net.fail_node(dead);

  // Immediate neighbors detect the deaths (assumption 2), recompute, and
  // start the cascade if their own level moved.
  for (const NodeId dead : newly_failed) {
    net.cube().for_each_neighbor(dead, [&](Dim, NodeId b) {
      if (net.faults().is_healthy(b)) {
        recompute_and_cascade(net, b, result.messages);
      }
    });
  }

  drain_and_cascade(net, result.messages);
  result.quiesced_at = net.now();
  return result;
}

AsyncGsResult stabilize_after_recoveries(
    Network& net, const std::vector<NodeId>& recovered) {
  SLC_EXPECT_MSG(net.idle(), "network must be idle before recovery");
  AsyncGsResult result;
  for (const NodeId back : recovered) net.recover_node(back);

  // Greetings: each healthy neighbor sends its current level to the
  // newcomer (assumption 2 makes the rejoin locally visible), and the
  // newcomer plus its neighbors recompute to seed the rising cascade.
  for (const NodeId back : recovered) {
    net.cube().for_each_neighbor(back, [&](Dim, NodeId b) {
      if (net.faults().is_healthy(b) && b != back) {
        net.send(b, back, LevelUpdate{b, net.level_of(b)});
        ++result.messages;
      }
    });
    recompute_and_cascade(net, back, result.messages);
  }
  for (const NodeId back : recovered) {
    net.cube().for_each_neighbor(back, [&](Dim, NodeId b) {
      if (net.faults().is_healthy(b)) {
        recompute_and_cascade(net, b, result.messages);
      }
    });
  }

  drain_and_cascade(net, result.messages);
  result.quiesced_at = net.now();
  return result;
}

PeriodicGsResult run_gs_periodic(Network& net, SimTime period,
                                 unsigned periods) {
  SLC_EXPECT(period >= net.link_delay());
  PeriodicGsResult result;
  const auto& cube = net.cube();
  for (unsigned p = 0; p < periods; ++p) {
    std::uint64_t wave_messages = 0;
    const std::uint64_t useful_before = result.useful;
    for (NodeId a = 0; a < cube.num_nodes(); ++a) {
      if (net.faults().is_healthy(a)) wave_messages += announce(net, a);
    }
    result.messages += wave_messages;
    net.run([&](const Scheduled& ev) {
      const auto& update = std::get<LevelUpdate>(ev.envelope.body);
      const NodeId a = ev.envelope.to;
      const Dim d = bits::lowest_set(a ^ update.from);
      if (net.neighbor_register(a, d) != update.level) ++result.useful;
      net.set_neighbor_register(a, d, update.level);
      return true;
    });
    for (NodeId a = 0; a < cube.num_nodes(); ++a) {
      if (net.faults().is_healthy(a)) {
        net.set_level(a, local_node_status(net, a));
      }
    }
    emit_round(net, p, result.useful - useful_before, wave_messages,
               /*egs=*/false, /*periodic=*/true);
    ++result.periods;
    net.advance_to(net.now() + period);
  }
  return result;
}

}  // namespace slcube::sim
