// The simulated machine: a faulty hypercube whose nodes hold only local
// state — their own safety level and one register per dimension caching
// the last level heard from that neighbor. All inter-node communication
// flows through the event queue with a fixed per-link delay.
//
// Fault model: fail-stop (assumption 1 of the paper). Messages are
// dropped (and counted) when, at DELIVERY time, either the link they
// travel on or the node they address is faulty — both fault kinds use
// the same delivery-time rule, so a wire dying mid-flight loses the
// message.
// Per assumption 2, a node can always interrogate the *liveness* of a
// direct neighbor (hardware heartbeat); what it cannot see is anything
// beyond one hop — that information only arrives via LevelUpdate
// messages, which is exactly what the GS protocol provides.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_set.hpp"
#include "fault/link_fault_set.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "topology/hypercube.hpp"

namespace slcube::sim {

/// Scrape view over the network's obs::Registry (the counters themselves
/// live in the registry under the "net.*" names; this struct is the
/// stable convenience API the tests and benches read).
struct NetworkStats {
  std::uint64_t level_updates_sent = 0;
  std::uint64_t unicast_hops = 0;
  std::uint64_t dropped = 0;  ///< dead-node + faulty-link drops combined
  std::uint64_t dropped_dead_node = 0;
  std::uint64_t dropped_faulty_link = 0;
  std::uint64_t node_failures = 0;
  std::uint64_t node_recoveries = 0;
};

class Network {
 public:
  Network(topo::Hypercube cube, fault::FaultSet faults, SimTime link_delay = 1);

  /// Section 4.1 machine: node faults plus faulty links. Messages across
  /// a faulty link are dropped (and counted); a register behind a faulty
  /// link reads 0 — the node can neither hear from nor use that
  /// neighbor, exactly the "treat the other end as faulty" rule.
  Network(topo::Hypercube cube, fault::FaultSet faults,
          fault::LinkFaultSet link_faults, SimTime link_delay = 1);

  [[nodiscard]] const topo::Hypercube& cube() const noexcept { return cube_; }
  [[nodiscard]] const fault::FaultSet& faults() const noexcept {
    return faults_;
  }
  [[nodiscard]] const fault::LinkFaultSet& link_faults() const noexcept {
    return link_faults_;
  }
  /// Healthy node with at least one adjacent faulty link (the paper's N2).
  [[nodiscard]] bool in_n2(NodeId a) const {
    return faults_.is_healthy(a) && link_faults_.touches(a);
  }
  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] SimTime link_delay() const noexcept { return link_delay_; }
  /// Point-in-time counter snapshot (scraped from metrics()).
  [[nodiscard]] NetworkStats stats() const;

  /// The network's metrics registry; counters live under "net.*", and
  /// scrape() returns all of them at once.
  [[nodiscard]] const obs::Registry& metrics() const noexcept {
    return metrics_;
  }

  /// Attach/detach a structured trace sink. When set, the network emits
  /// MessageSend/MessageDrop/NodeFail/NodeRecover events and the
  /// protocols layered on top add GS-round and unicast-hop events.
  void set_trace(obs::TraceSink* sink) noexcept { trace_ = sink; }
  [[nodiscard]] obs::TraceSink* trace() const noexcept { return trace_; }

  /// --- local node state (the protocols' only view of the world) ---

  [[nodiscard]] core::Level level_of(NodeId a) const noexcept {
    return levels_[a];
  }
  void set_level(NodeId a, core::Level level) noexcept { levels_[a] = level; }

  /// Register: the last level node `a` heard from its dimension-`d`
  /// neighbor (kept exact for liveness per assumption 2: a freshly dead
  /// neighbor reads as 0 immediately).
  [[nodiscard]] core::Level neighbor_register(NodeId a, Dim d) const {
    const NodeId b = cube_.neighbor(a, d);
    if (faults_.is_faulty(b) || link_faults_.is_faulty(a, d)) {
      return 0;
    }
    return registers_[a][d];
  }
  void set_neighbor_register(NodeId a, Dim d, core::Level level) {
    registers_[a][d] = level;
  }

  /// Sorted register snapshot of node `a` (input to NODE_STATUS).
  [[nodiscard]] std::vector<core::Level> sorted_registers(NodeId a) const;

  /// --- messaging ---

  /// Send a message from `from` to its neighbor `to`; it arrives
  /// link_delay later (dropped then if the wire or `to` has died
  /// meanwhile).
  void send(NodeId from, NodeId to, Body body);

  /// --- fault injection (test/bench hooks, not visible to protocols) ---

  /// Node `a` dies now. Its neighbors' liveness view updates immediately
  /// (assumption 2); their cached registers go to 0.
  void fail_node(NodeId a);

  /// A previously faulty node recovers (Section 2.2: "the occurrence (or
  /// recovery) of faulty nodes"). It rejoins PESSIMISTICALLY at level 0
  /// with all-zero neighbor registers, and its neighbors' cached
  /// registers for it are reset to 0 as well — that puts the whole state
  /// pointwise below the new fixed point, so the recovery cascade rises
  /// monotonically to the unique Theorem-1 assignment. (The paper's
  /// optimistic level-n start is only used for full GS restarts; a
  /// level-n rejoin here would be non-monotone.) Registers then refresh
  /// through ordinary GS activity (state-change or periodic), not
  /// magically.
  void recover_node(NodeId a);

  /// The link between `a` and its dimension-`d` neighbor dies now.
  /// Messages already in flight on it are dropped at their delivery time
  /// (never silently delivered); registers behind it read 0 immediately.
  void fail_link(NodeId a, Dim d);

  /// A previously faulty link recovers. Registers across it refresh via
  /// the next GS activity, like a node recovery.
  void recover_link(NodeId a, Dim d);

  /// --- event loop ---

  /// Deliver events in order until the queue is empty or `handler`
  /// requests a stop. handler(Scheduled) -> bool keep_running; it is only
  /// invoked for messages whose recipient is alive at delivery time.
  template <typename Handler>
  void run(Handler&& handler) {
    while (auto ev = queue_.pop()) {
      SLC_ASSERT(ev->time >= now_);
      now_ = ev->time;
      // Both fault kinds are judged by the state AT DELIVERY TIME: a
      // message is lost if its wire or its recipient is faulty when it
      // arrives, even if both were healthy at send time. The wire is
      // checked first — a message cannot reach a node it never got to.
      const NodeId from = ev->envelope.from;
      const NodeId to = ev->envelope.to;
      if (link_faults_.is_faulty(to, bits::lowest_set(from ^ to))) {
        drop_link_.inc();
        emit_drop(*ev, "faulty-link");
        continue;
      }
      if (faults_.is_faulty(to)) {
        drop_dead_.inc();
        emit_drop(*ev, "dead-node");
        continue;
      }
      if (!handler(*ev)) return;
    }
  }

  /// Advance the clock: between rounds of the synchronous protocol, or
  /// to an in-flight message's arrival (never past it), so that what
  /// happens by then precedes its delivery-time check.
  void advance_to(SimTime t) {
    SLC_EXPECT(t >= now_);
    now_ = t;
  }

  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }

 private:
  [[nodiscard]] static obs::MsgKind kind_of(const Body& body) noexcept {
    return std::holds_alternative<LevelUpdate>(body)
               ? obs::MsgKind::kLevelUpdate
               : obs::MsgKind::kUnicast;
  }

  void emit_drop(const Scheduled& ev, const char* reason) {
    if (trace_ == nullptr) return;
    obs::MessageDropEvent drop;
    drop.time = now_;
    drop.from = ev.envelope.from;
    drop.to = ev.envelope.to;
    drop.kind = kind_of(ev.envelope.body);
    drop.reason = reason;
    trace_->on_event(drop);
  }

  topo::Hypercube cube_;
  fault::FaultSet faults_;
  fault::LinkFaultSet link_faults_;
  SimTime link_delay_;
  SimTime now_ = 0;
  std::vector<core::Level> levels_;
  std::vector<std::vector<core::Level>> registers_;
  EventQueue queue_;
  obs::Registry metrics_;  ///< declared before the handles bound to it
  obs::Counter sent_level_updates_;
  obs::Counter sent_unicast_hops_;
  obs::Counter drop_dead_;
  obs::Counter drop_link_;
  obs::Counter node_failures_;
  obs::Counter node_recoveries_;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace slcube::sim
