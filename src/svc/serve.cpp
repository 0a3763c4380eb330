#include "svc/serve.hpp"

#include <optional>
#include <utility>

#include "common/contracts.hpp"
#include "core/walk.hpp"
#include "obs/profiler.hpp"

namespace slcube::svc {

namespace {

using core::RouteStatus;

/// The walk's ground judge over snapshots: `acquire()` yields the epoch
/// to judge the launch and each traversal against — the same snapshot
/// for the fixed overload, the latest published one for live serving.
/// Only the ground is consulted: the decision snapshot already vouched
/// for the hop.
template <typename Acquire>
struct SnapshotGround {
  Acquire acquire;
  std::uint64_t last_epoch = 0;

  [[nodiscard]] std::uint64_t epoch() const noexcept { return last_epoch; }
  std::optional<RouteStatus> launch(NodeId s) {
    const Snapshot& ground = acquire();
    last_epoch = ground.epoch;
    if (ground.faults.is_faulty(s)) return RouteStatus::kDroppedSource;
    return std::nullopt;
  }
  std::optional<RouteStatus> cross(NodeId from, Dim dim, NodeId to) {
    const Snapshot& ground = acquire();
    last_epoch = ground.epoch;
    if (ground.links.is_faulty(from, dim)) return RouteStatus::kDroppedLink;
    if (ground.faults.is_faulty(to)) return RouteStatus::kDroppedNode;
    return std::nullopt;
  }
};

/// Decisions come from `decision` only, with the default lowest-dim
/// tie-break, so with ground == decision the result is route_unicast_egs's.
template <typename Acquire>
ServeResult serve(const topo::Hypercube& cube, const Snapshot& decision,
                  Acquire acquire, NodeId s, NodeId d,
                  const ServeOptions& options) {
  const obs::StageScope stage("svc.serve");
  SLC_EXPECT_MSG(decision.faults.is_healthy(s),
                 "serve source must be healthy in the decision snapshot");
  SLC_EXPECT_MSG(decision.faults.is_healthy(d),
                 "serve destination must be healthy in the decision snapshot");
  core::UnicastOptions walk_options;
  walk_options.trace = options.trace;
  SnapshotGround<Acquire> ground{std::move(acquire)};
  ServeResult result;
  result.decision_epoch = decision.epoch;
  core::walk_route(core::EgsView{cube, decision.links, decision.views()},
                   ground, s, d, walk_options, result);
  result.ground_epoch = ground.epoch();
  return result;
}

}  // namespace

ServeResult serve_route(const Snapshot& decision, const Snapshot& ground,
                        NodeId s, NodeId d, const ServeOptions& options) {
  SLC_EXPECT_MSG(decision.links.cube().num_nodes() ==
                     ground.links.cube().num_nodes(),
                 "decision and ground snapshots must share a cube");
  return serve(
      decision.links.cube(), decision,
      [&]() -> const Snapshot& { return ground; }, s, d, options);
}

ServeResult serve_route(const SnapshotOracle& oracle,
                        const SnapshotPtr& decision, NodeId s, NodeId d,
                        const ServeOptions& options) {
  SLC_EXPECT_MSG(decision != nullptr, "serve needs a decision snapshot");
  // `hold` keeps each re-acquired ground epoch alive across its check;
  // the previous epoch may be freed as soon as the next one replaces it.
  SnapshotPtr hold;
  return serve(
      oracle.cube(), *decision,
      [&]() -> const Snapshot& {
        hold = oracle.acquire();
        return *hold;
      },
      s, d, options);
}

}  // namespace slcube::svc
