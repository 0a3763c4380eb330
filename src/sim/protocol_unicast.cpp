#include "sim/protocol_unicast.hpp"

#include <algorithm>
#include <optional>
#include <span>

#include "core/walk.hpp"

namespace slcube::sim {

namespace {

using core::RouteStatus;

/// The packet holder's view: its own level, its neighbor registers, and
/// the liveness of its own links and direct neighbors (assumption 2) —
/// nothing beyond one hop.
struct RegisterView {
  const topo::Hypercube& cube;
  const Network& net;

  [[nodiscard]] unsigned level(NodeId from, Dim dim) const {
    return net.neighbor_register(from, dim);
  }

  /// Source feasibility from purely local state (own level + registers).
  [[nodiscard]] core::SourceDecision decide(NodeId s, NodeId d) const {
    core::SourceDecision dec;
    const std::uint32_t nav = cube.navigation_vector(s, d);
    dec.hamming = bits::popcount(nav);
    if (dec.hamming == 0) {
      dec.c1 = true;
      return dec;
    }
    dec.c1 = net.level_of(s) >= dec.hamming;
    for (Dim dim = 0; dim < cube.dimension(); ++dim) {
      // A dimension behind one of the source's own dead links is unusable
      // whatever its register says (and the register reads 0 anyway); the
      // source knows its own link status locally.
      if (net.link_faults().is_faulty(s, dim)) continue;
      const core::Level reg = net.neighbor_register(s, dim);
      if (bits::test(nav, dim)) {
        // H == 1: the preferred neighbor IS the destination; a healthy
        // link suffices (footnote 3) even if its advertised level is 0.
        dec.c2 |= dec.hamming == 1 || reg + 1u >= dec.hamming;
      } else {
        dec.c3 |= reg >= dec.hamming + 1u;
      }
    }
    // C1 with the destination across the source's own dead link is void
    // (the self-view guarantee excludes exactly those far ends).
    if (dec.hamming == 1 &&
        net.link_faults().is_faulty(s, bits::lowest_set(nav))) {
      dec.c1 = false;
    }
    return dec;
  }

  /// The preferred neighbor of maximal register. Footnote 3: when the
  /// destination is the only one left, the packet crosses to it if the
  /// link and the node are alive, whatever its register advertises (an
  /// N2 node reads 0).
  [[nodiscard]] std::optional<Dim> next(NodeId a, std::uint32_t nav,
                                        const core::UnicastOptions& options,
                                        unsigned* ties) const {
    if (bits::popcount(nav) == 1) {
      const Dim dim = bits::lowest_set(nav);
      if (ties != nullptr) *ties = 1;
      if (net.link_faults().is_faulty(a, dim) ||
          net.faults().is_faulty(cube.neighbor(a, dim))) {
        return std::nullopt;
      }
      return dim;
    }
    return core::argmax_level<Dim>(
        options, cube.dimension(), ties, [&](auto&& visit) {
          cube.any_preferred(a, nav, [&](Dim dim, NodeId) {
            return visit(dim, net.neighbor_register(a, dim));
          });
        });
  }
  /// The spare neighbor of maximal register, provided it is >= H + 1.
  [[nodiscard]] std::optional<Dim> spare(NodeId a, std::uint32_t nav,
                                         const core::UnicastOptions& options,
                                         unsigned* ties) const {
    const auto pick = core::argmax_level<Dim>(
        options, cube.dimension(), ties, [&](auto&& visit) {
          cube.any_spare(a, nav, [&](Dim dim, NodeId) {
            return visit(dim, net.neighbor_register(a, dim));
          });
        });
    if (!pick || net.neighbor_register(a, *pick) < bits::popcount(nav) + 1u) {
      return std::nullopt;
    }
    return pick;
  }
};

/// The network as the walk's ground judge. A traversal sends the packet,
/// lets the failures due by its arrival strike, and leaves the verdict to
/// the network's delivery-time rule (Network::run), which drops — and
/// traces — a packet whose wire or recipient has died.
struct NetworkGround {
  Network& net;
  std::span<const ScheduledFailure> failures;  ///< sorted, not yet struck
  UnicastPacket packet;

  /// Kill every scheduled node due by `now`.
  void strike(SimTime now) {
    for (; !failures.empty() && failures.front().time <= now;
         failures = failures.subspan(1)) {
      const NodeId dead = failures.front().node;
      if (net.faults().is_healthy(dead)) net.fail_node(dead);
    }
  }

  /// The time a lost message is stamped with (the network stamps its own).
  [[nodiscard]] SimTime epoch() const noexcept { return net.now(); }
  [[nodiscard]] std::optional<RouteStatus> launch(NodeId s) const {
    if (net.faults().is_faulty(s)) return RouteStatus::kDroppedSource;
    return std::nullopt;
  }
  std::optional<RouteStatus> cross(NodeId from, Dim dim, NodeId to) {
    // A preferred hop clears its navigation bit, the spare detour sets it.
    packet.took_spare |= !bits::test(packet.nav, dim);
    packet.nav ^= bits::unit(dim);
    net.send(from, to, packet);
    net.advance_to(net.now() + net.link_delay());
    strike(net.now());
    bool landed = false;
    net.run([&](const Scheduled&) {
      landed = true;
      return false;
    });
    if (landed) return std::nullopt;
    return net.link_faults().is_faulty(from, dim) ? RouteStatus::kDroppedLink
                                                  : RouteStatus::kDroppedNode;
  }
};

/// The route chain of a traced simulated unicast. The network traces the
/// packet's every send and its drop itself, so the walk adds no send/drop
/// pair of its own.
struct NetworkTracedEvents : core::TraceEvents {
  template <typename... Args>
  void drop(Args&&...) const noexcept {}
};

}  // namespace

SimRouteResult route_unicast_sim(Network& net, NodeId s, NodeId d,
                                 std::vector<ScheduledFailure> failures,
                                 const core::UnicastOptions& options) {
  SLC_EXPECT(net.faults().is_healthy(s));
  SLC_EXPECT(net.faults().is_healthy(d));
  SLC_EXPECT_MSG(net.idle(), "network must be idle before a unicast");
  SLC_EXPECT_MSG(options.trace == nullptr || options.trace == net.trace(),
                 "a simulated unicast traces to its network's sink");
  std::sort(failures.begin(), failures.end(),
            [](const ScheduledFailure& a, const ScheduledFailure& b) {
              return a.time < b.time;
            });
  NetworkGround ground{
      net, failures,
      UnicastPacket{0, s, d, net.cube().navigation_vector(s, d), false}};
  SimRouteResult result;
  result.injected_at = net.now();
  ground.strike(net.now());  // before the source decides
  const RegisterView view{net.cube(), net};
  if (net.trace() == nullptr) {
    core::NullEvents events;
    core::walk(view, ground, events, s, d, options, result);
  } else {
    NetworkTracedEvents events{{net.trace(), s, d, &result.decision}};
    core::walk(view, ground, events, s, d, options, result);
  }
  result.finished_at = net.now();
  return result;
}

}  // namespace slcube::sim
