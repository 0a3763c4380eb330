// The route walker: Section 3.2's algorithm written once.
//
// Every binary-cube router in the library runs the same walk: decide
// C1/C2/C3 at the source, take at most one spare detour (setting its
// navigation bit), then forward hop by hop until the navigation vector
// is empty, ending delivered, refused at the source, stuck, or dropped.
// What differs between routers is factored into three compile-time
// policies, so each router is an instantiation rather than a copy:
//
//   View   — the decision view: the source decision, the spare detour
//            and the next hop. LevelView reads one level table (§3);
//            EgsView reads the two EGS views plus the decision-side link
//            faults and owns footnote 3's final hop (§4.1); VectorView
//            reads safety vectors.
//   Judge  — the ground judge: NoGround for the core routers (the
//            decision table is the network), or svc's snapshot judge,
//            which can drop the route at launch or at any traversal.
//   Events — NullEvents compiles to nothing; TraceEvents is the one
//            builder of the route-chain trace events (also used by the
//            message-level simulator in src/sim).
//
// walk_route() branches on UnicastOptions::trace once, before the walk,
// so the untraced instantiation carries no trace code at all. The
// max-level tie-break kernel argmax_level() is shared with the GH router
// (keyed by node) and the simulator (keyed by dimension).
#pragma once

#include <cstdint>
#include <optional>

#include "core/egs.hpp"
#include "core/safety_vector.hpp"
#include "core/unicast.hpp"
#include "obs/trace.hpp"

namespace slcube::core {

/// Among the candidates `for_each` visits — as visit(key, level), in
/// enumeration order — the key of maximal nonzero level, or nullopt when
/// every candidate has level 0 (faulty) or there is none. `ties`
/// receives the number of equally-maximal candidates. kLowestDim takes
/// the first; kRandom draws one index from options.rng and finds that
/// tie on a second pass, so any number of candidates fits without a
/// buffer. Declared `inline` as an inlining hint: kept out of line, the
/// closure and the result round-trip through memory on every hop.
template <typename Key, typename ForEach>
[[nodiscard]] inline std::optional<Key> argmax_level(
    const UnicastOptions& options, unsigned& ties, ForEach&& for_each) {
  Key best{};
  unsigned best_level = 0;  // level 0 == faulty is never a valid choice
  ties = 0;
  for_each([&](Key key, unsigned level) {
    if (level > best_level) {
      best_level = level;
      best = key;
      ties = 1;
    } else if (level == best_level && best_level > 0) {
      ++ties;
    }
  });
  if (ties == 0) return std::nullopt;
  if (options.tie_break == TieBreak::kLowestDim || ties == 1) return best;
  SLC_EXPECT_MSG(options.rng != nullptr,
                 "TieBreak::kRandom requires UnicastOptions::rng");
  // Count down to the drawn tie; past it `skip` wraps and never hits 0.
  std::uint64_t skip = options.rng->below(ties);
  for_each([&](Key key, unsigned level) {
    if (level == best_level && skip-- == 0) best = key;
  });
  return best;
}

// --- decision views ---------------------------------------------------------

/// One level table (Section 3). Level 0 means faulty, so a destination
/// the table reads as 0 is unreachable: no footnote-3 final hop.
struct LevelView {
  const topo::Hypercube& cube;
  const SafetyLevels& levels;

  static constexpr bool kTwoView = false;
  [[nodiscard]] Level self_level(NodeId) const noexcept { return 0; }
  [[nodiscard]] unsigned level(NodeId a) const noexcept { return levels[a]; }

  [[nodiscard]] SourceDecision decide(NodeId s, NodeId d) const {
    return decide_at_source(cube, levels, s, d);
  }
  /// The preferred neighbor of maximal level.
  [[nodiscard]] std::optional<Dim> next(NodeId a, std::uint32_t nav,
                                        const UnicastOptions& options,
                                        unsigned& ties) const {
    return argmax_level<Dim>(options, ties, [&](auto&& visit) {
      cube.for_each_preferred(
          a, nav, [&](Dim dim, NodeId b) { visit(dim, levels[b]); });
    });
  }
  /// The spare neighbor of maximal level, provided it is >= H + 1.
  [[nodiscard]] std::optional<Dim> spare(NodeId a, std::uint32_t nav,
                                         const UnicastOptions& options,
                                         unsigned& ties) const {
    const auto pick = argmax_level<Dim>(options, ties, [&](auto&& visit) {
      cube.for_each_spare(
          a, nav, [&](Dim dim, NodeId b) { visit(dim, levels[b]); });
    });
    if (!pick || levels[cube.neighbor(a, *pick)] < bits::popcount(nav) + 1u) {
      return std::nullopt;
    }
    return pick;
  }
};

/// The EGS two views (Section 4.1): decisions on the public view, C1 on
/// the source's self view, and every hop refused across a link the
/// decision side knows is faulty. Footnote 3: when one navigation bit is
/// left, the only preferred neighbor IS the destination — which may be
/// an N2 node everyone else reads as level 0 — so the message crosses
/// the connecting link whenever that link is healthy.
struct EgsView : LevelView {
  const fault::LinkFaultSet& links;
  const SafetyLevels& self_view;

  EgsView(const topo::Hypercube& c, const fault::LinkFaultSet& l,
          EgsViews views)
      : LevelView{c, views.public_view}, links(l), self_view(views.self_view) {}

  static constexpr bool kTwoView = true;
  [[nodiscard]] Level self_level(NodeId s) const noexcept {
    return self_view[s];
  }

  [[nodiscard]] SourceDecision decide(NodeId s, NodeId d) const {
    return decide_at_source_egs(cube, links, EgsViews{levels, self_view}, s,
                                d);
  }
  [[nodiscard]] std::optional<Dim> next(NodeId a, std::uint32_t nav,
                                        const UnicastOptions& options,
                                        unsigned& ties) const {
    if (bits::popcount(nav) == 1) {
      const Dim dim = bits::lowest_set(nav);
      ties = 1;
      if (links.is_faulty(a, dim)) return std::nullopt;
      return dim;
    }
    const auto pick = LevelView::next(a, nav, options, ties);
    if (pick && links.is_faulty(a, *pick)) return std::nullopt;
    return pick;
  }
  /// Spare levels >= H + 1 >= 2 put the spare in N1, and a faulty link
  /// to it would have put it in N2 (public 0): the threshold alone rules
  /// out a dead detour link.
  [[nodiscard]] std::optional<Dim> spare(NodeId a, std::uint32_t nav,
                                         const UnicastOptions& options,
                                         unsigned& ties) const {
    const auto pick = LevelView::spare(a, nav, options, ties);
    SLC_ASSERT(!pick || !links.is_faulty(a, *pick));
    return pick;
  }
};

/// Safety vectors: a preferred neighbor qualifies at remaining distance
/// j when its V(j-1) bit is set, and the last hop is always safe (the
/// destination is healthy and one hop away). Never traced.
struct VectorView {
  const topo::Hypercube& cube;
  const SafetyVectors& vectors;

  [[nodiscard]] SourceDecision decide(NodeId s, NodeId d) const {
    return decide_at_source_sv(cube, vectors, s, d);
  }
  [[nodiscard]] std::optional<Dim> next(NodeId a, std::uint32_t nav,
                                        const UnicastOptions& options,
                                        unsigned& ties) const {
    const unsigned j = bits::popcount(nav);
    if (j == 1) return bits::lowest_set(nav);
    return argmax_level<Dim>(options, ties, [&](auto&& visit) {
      cube.for_each_preferred(a, nav, [&](Dim dim, NodeId b) {
        visit(dim, vectors.bit(b, j - 1) ? 1u : 0u);
      });
    });
  }
  /// The lowest spare whose V(H+1) bit covers the new distance; the
  /// tie-break option does not apply to the detour.
  [[nodiscard]] std::optional<Dim> spare(NodeId a, std::uint32_t nav,
                                         const UnicastOptions&,
                                         unsigned& ties) const {
    const unsigned k = bits::popcount(nav) + 1;
    return argmax_level<Dim>(UnicastOptions{}, ties, [&](auto&& visit) {
      cube.for_each_spare(a, nav, [&](Dim dim, NodeId b) {
        visit(dim, vectors.bit(b, k) ? 1u : 0u);
      });
    });
  }
};

// --- ground judge -----------------------------------------------------------

/// The core routers' ground: the decision table is the network, so
/// nothing is ever dropped.
struct NoGround {
  static constexpr std::optional<RouteStatus> launch(NodeId) noexcept {
    return std::nullopt;
  }
  static constexpr std::optional<RouteStatus> cross(NodeId, Dim,
                                                    NodeId) noexcept {
    return std::nullopt;
  }
  static constexpr std::uint64_t epoch() noexcept { return 0; }
};

// --- events -----------------------------------------------------------------

/// The untraced walk: every call compiles away.
struct NullEvents {
  template <typename... Args>
  void source(Args&&...) noexcept {}
  template <typename... Args>
  void hop(Args&&...) noexcept {}
  template <typename... Args>
  void drop(Args&&...) noexcept {}
  template <typename... Args>
  void done(Args&&...) noexcept {}
};

/// The one builder of a route's event chain: the source decision (sent
/// once, lazily at the first traversal so the chosen dimension is known,
/// or at the terminal event), one hop per landed traversal, a send/drop
/// pair for a traversal the ground refused, and the terminal status.
/// `sink` must be non-null.
struct TraceEvents {
  obs::TraceSink* sink;
  NodeId s = 0;
  NodeId d = 0;
  const SourceDecision* decision = nullptr;
  bool egs = false;      ///< decided under the EGS two-view tables
  Level self_level = 0;  ///< the source's self-view level (EGS only)
  bool source_sent = false;

  void source(int chosen_dim, unsigned ties, bool spare) {
    if (source_sent) return;
    source_sent = true;
    obs::SourceDecisionEvent ev;
    ev.source = s;
    ev.dest = d;
    ev.hamming = decision->hamming;
    ev.c1 = decision->c1;
    ev.c2 = decision->c2;
    ev.c3 = decision->c3;
    ev.chosen_dim = chosen_dim;
    ev.ties = ties;
    ev.spare = spare;
    ev.egs = egs;
    ev.self_level = self_level;
    ev.dest_link_faulty = decision->dest_link_faulty;
    sink->on_event(ev);
  }

  /// `level` is the level of `to` as the deciding node sees it.
  void hop(NodeId from, NodeId to, Dim dim, unsigned level,
           std::uint32_t nav_before, std::uint32_t nav_after, bool preferred,
           unsigned ties) const {
    obs::HopEvent ev;
    ev.from = from;
    ev.to = to;
    ev.dim = dim;
    ev.level = level;
    ev.nav_before = nav_before;
    ev.nav_after = nav_after;
    ev.preferred = preferred;
    ev.ties = ties;
    sink->on_event(ev);
  }
  template <typename View>
  void hop(const View& view, NodeId from, NodeId to, Dim dim,
           std::uint32_t nav_before, std::uint32_t nav_after, bool preferred,
           unsigned ties) const {
    hop(from, to, dim, view.level(to), nav_before, nav_after, preferred, ties);
  }

  /// The fatal traversal in the simulator's dialect, which is the
  /// in-flight-death shape obs::AuditSink accepts.
  void drop(NodeId from, NodeId to, RouteStatus why,
            std::uint64_t time) const {
    obs::MessageSendEvent send;
    send.time = time;
    send.from = from;
    send.to = to;
    send.kind = obs::MsgKind::kUnicast;
    sink->on_event(send);
    obs::MessageDropEvent lost;
    lost.time = time;
    lost.from = from;
    lost.to = to;
    lost.kind = obs::MsgKind::kUnicast;
    lost.reason =
        why == RouteStatus::kDroppedLink ? "faulty-link" : "dead-node";
    sink->on_event(lost);
  }

  void done(const char* status, unsigned hops) const {
    obs::RouteDoneEvent ev;
    ev.source = s;
    ev.dest = d;
    ev.status = status;
    ev.hops = hops;
    sink->on_event(ev);
  }
  /// A dropped route ends "lost" over the hops that landed.
  void done(RouteStatus status, unsigned hops) const {
    done(is_drop(status) ? "lost" : to_string(status), hops);
  }
};

// --- the walk ---------------------------------------------------------------

/// Route s -> d into `r`. With `dispatch` false the walk skips the
/// C1/C2/C3 dispatch and enters the forwarding loop directly (the
/// route-anyway ablation).
template <typename View, typename Judge, typename Events>
void walk(const View& view, Judge& judge, Events& events, NodeId s, NodeId d,
          const UnicastOptions& options, RouteResult& r,
          bool dispatch = true) {
  r.decision = view.decide(s, d);
  r.path.push_back(s);
  const auto end = [&](RouteStatus status) {
    r.status = status;
    events.source(-1, 0u, false);  // no-op once a traversal announced it
    events.done(status, r.hops());
  };
  // A source that died after the decision table was built sends nothing,
  // not even a refusal.
  if (const auto why = judge.launch(s)) return end(*why);

  NodeId cur = s;
  std::uint32_t nav = view.cube.navigation_vector(s, d);
  // One traversal along `dim`: announce the route, let the ground veto
  // the hop, land. A preferred hop clears its navigation bit; the spare
  // detour sets its bit, to be repaid later.
  const auto traverse = [&](Dim dim, unsigned ties, bool preferred) {
    const NodeId to = view.cube.neighbor(cur, dim);
    events.source(static_cast<int>(dim), ties, !preferred);
    if (const auto why = judge.cross(cur, dim, to)) {
      events.drop(cur, to, *why, judge.epoch());
      end(*why);
      return false;
    }
    const std::uint32_t after = nav ^ bits::unit(dim);
    events.hop(view, cur, to, dim, nav, after, preferred, ties);
    cur = to;
    nav = after;
    r.path.push_back(to);
    return true;
  };

  bool detoured = false;
  if (dispatch && !r.decision.optimal_feasible()) {
    if (!r.decision.c3) return end(RouteStatus::kSourceRefused);
    unsigned ties = 0;
    const auto spare = view.spare(cur, nav, options, ties);
    SLC_ASSERT_MSG(spare.has_value(), "C3 held but no spare qualified");
    if (!traverse(*spare, ties, false)) return;
    detoured = true;
  }
  // Each hop clears one bit, so the loop runs popcount(nav) times unless
  // an inconsistent or stale table leaves no qualifying neighbor.
  while (nav != 0) {
    unsigned ties = 1;
    const auto next = view.next(cur, nav, options, ties);
    if (!next) return end(RouteStatus::kStuck);
    if (!traverse(*next, ties, true)) return;
  }
  SLC_ASSERT(cur == d);
  end(detoured ? RouteStatus::kDeliveredSuboptimal
               : RouteStatus::kDeliveredOptimal);
}

/// walk() with the event policy chosen once from options.trace.
template <typename View, typename Judge>
void walk_route(const View& view, Judge& judge, NodeId s, NodeId d,
                const UnicastOptions& options, RouteResult& r,
                bool dispatch = true) {
  if (options.trace == nullptr) {
    NullEvents events;
    walk(view, judge, events, s, d, options, r, dispatch);
  } else {
    TraceEvents events{options.trace, s, d, &r.decision, View::kTwoView,
                       view.self_level(s)};
    walk(view, judge, events, s, d, options, r, dispatch);
  }
}

}  // namespace slcube::core
