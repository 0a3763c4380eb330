#include "sim/protocol_unicast.hpp"

#include <algorithm>
#include <optional>

#include "core/walk.hpp"

namespace slcube::sim {

const char* to_string(SimRouteStatus s) {
  switch (s) {
    case SimRouteStatus::kDelivered:
      return "delivered";
    case SimRouteStatus::kRefused:
      return "refused";
    case SimRouteStatus::kStuck:
      return "stuck";
    case SimRouteStatus::kLost:
      return "lost";
  }
  SLC_UNREACHABLE("bad SimRouteStatus");
}

namespace {

/// Source feasibility from purely local state (own level + registers).
core::SourceDecision local_decide(const Network& net, NodeId s, NodeId d) {
  core::SourceDecision dec;
  const auto& cube = net.cube();
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

/// Max-register preferred (bit of `mask` set) or spare (bit clear)
/// dimension, through the core walker's max-level kernel. Asking for
/// `ties` keeps its full scan: the hop events record the count.
std::optional<Dim> local_choose(const Network& net, NodeId a,
                                std::uint32_t mask, bool preferred,
                                const core::UnicastOptions& options,
                                unsigned& ties) {
  const unsigned n = net.cube().dimension();
  return core::argmax_level<Dim>(options, n, &ties, [&](auto&& visit) {
    for (Dim dim = 0; dim < n; ++dim) {
      if (bits::test(mask, dim) == preferred) {
        visit(dim, net.neighbor_register(a, dim));
      }
    }
  });
}

}  // namespace

SimRouteResult route_unicast_sim(Network& net, NodeId s, NodeId d,
                                 std::vector<ScheduledFailure> failures,
                                 const core::UnicastOptions& options) {
  SLC_EXPECT(net.faults().is_healthy(s));
  SLC_EXPECT(net.faults().is_healthy(d));
  SLC_EXPECT_MSG(net.idle(), "network must be idle before a unicast");
  std::sort(failures.begin(), failures.end(),
            [](const ScheduledFailure& a, const ScheduledFailure& b) {
              return a.time < b.time;
            });
  std::size_t next_failure = 0;
  auto apply_due_failures = [&](SimTime now) {
    for (; next_failure < failures.size() &&
           failures[next_failure].time <= now;
         ++next_failure) {
      const NodeId dead = failures[next_failure].node;
      if (net.faults().is_healthy(dead)) net.fail_node(dead);
    }
  };

  // Events go to the per-call sink when given, else the network's.
  obs::TraceSink* const trace =
      options.trace != nullptr ? options.trace : net.trace();

  SimRouteResult result;
  result.injected_at = net.now();
  result.decision = local_decide(net, s, d);
  result.path.push_back(s);
  apply_due_failures(net.now());

  // The route-chain events come from the core walker's one builder; the
  // terminal status speaks the simulator's own dialect.
  core::TraceEvents events{trace, s, d, &result.decision};
  const auto trace_done = [&] {
    if (trace == nullptr) return;
    events.source(-1, 0, false);  // no-op once the launch announced it
    events.done(to_string(result.status),
                static_cast<unsigned>(result.path.size() - 1));
  };
  // Forward `pkt` along `dim`, tracing the hop as decided from the
  // holder's own register.
  const auto forward = [&](NodeId from, Dim dim, std::uint32_t nav_before,
                           const UnicastPacket& pkt, unsigned ties) {
    const NodeId to = net.cube().neighbor(from, dim);
    const bool preferred = bits::test(nav_before, dim);
    if (trace != nullptr) {
      events.source(static_cast<int>(dim), ties, !preferred);
      events.hop(from, to, dim, net.neighbor_register(from, dim), nav_before,
                 pkt.nav, preferred, ties);
    }
    net.send(from, to, pkt);
  };

  std::uint32_t nav = net.cube().navigation_vector(s, d);
  if (nav == 0) {
    result.status = SimRouteStatus::kDelivered;
    result.finished_at = net.now();
    trace_done();
    return result;
  }

  // Locally-checkable final hop (assumption 2 + footnote 3): when the
  // destination is the only preferred neighbor left, deliver across the
  // connecting link if that link and the destination are alive — even if
  // the destination's advertised level is 0 (an N2 node others treat as
  // faulty).
  auto final_hop_dim = [&](NodeId holder,
                           std::uint32_t rem) -> std::optional<Dim> {
    if (bits::popcount(rem) != 1) return std::nullopt;
    const Dim dim = bits::lowest_set(rem);
    if (net.link_faults().is_faulty(holder, dim) ||
        net.faults().is_faulty(net.cube().neighbor(holder, dim))) {
      return std::nullopt;
    }
    return dim;
  };

  // Source-side dispatch: optimal via best preferred, suboptimal via the
  // one spare detour, else refuse without sending anything.
  bool launched = false;
  if (result.decision.optimal_feasible()) {
    unsigned ties = 1;  // final_hop_dim is a forced move
    auto dim = final_hop_dim(s, nav);
    if (!dim) dim = local_choose(net, s, nav, true, options, ties);
    if (dim) {
      forward(s, *dim, nav, {0, s, d, nav & ~bits::unit(*dim), false}, ties);
      launched = true;
    }
  }
  if (!launched && result.decision.c3) {
    unsigned ties = 0;
    const auto dim = local_choose(net, s, nav, false, options, ties);
    if (dim && net.neighbor_register(s, *dim) >=
                   result.decision.hamming + 1u) {
      forward(s, *dim, nav, {0, s, d, nav | bits::unit(*dim), true}, ties);
      launched = true;
    }
  }
  if (!launched) {
    result.status = SimRouteStatus::kRefused;
    result.finished_at = net.now();
    trace_done();
    return result;
  }

  // In flight: the queue holds exactly this packet; if it drains without
  // a terminal decision the packet died with its holder.
  result.status = SimRouteStatus::kLost;
  net.run([&](const Scheduled& ev) {
    apply_due_failures(ev.time);
    const NodeId a = ev.envelope.to;
    if (net.faults().is_faulty(a)) return false;  // died as the packet landed
    const auto& pkt = std::get<UnicastPacket>(ev.envelope.body);
    result.path.push_back(a);
    if (pkt.nav == 0) {
      result.status = SimRouteStatus::kDelivered;
      result.finished_at = net.now();
      return false;
    }
    unsigned ties = 1;
    auto dim = final_hop_dim(a, pkt.nav);
    if (!dim) dim = local_choose(net, a, pkt.nav, true, options, ties);
    if (!dim) {
      result.status = SimRouteStatus::kStuck;
      result.finished_at = net.now();
      return false;
    }
    UnicastPacket fwd = pkt;
    fwd.nav &= ~bits::unit(*dim);
    forward(a, *dim, pkt.nav, fwd, ties);
    return true;
  });
  if (result.status == SimRouteStatus::kLost) result.finished_at = net.now();
  trace_done();
  return result;
}

}  // namespace slcube::sim
