#include "workload/service_script.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "exp/sweep_engine.hpp"
#include "fault/fault_set.hpp"
#include "fault/link_fault_set.hpp"
#include "workload/pair_sampler.hpp"

namespace slcube::workload {

namespace {
// Substream families within the script's seed (disjoint from nothing
// else — the script owns its seed).
constexpr std::uint64_t kChurnStream = 0;
constexpr std::uint64_t kRequestStream = 1;
}  // namespace

ServiceScript::ServiceScript(const ServiceScriptConfig& config)
    : config_(config), cube_(config.dim) {
  svc::SnapshotOracle oracle(cube_);
  snapshots_.reserve(config_.epochs + 1);
  snapshots_.push_back(oracle.acquire());  // epoch 0, fault-free

  // The bench_service writer's repair policy, replayed deterministically:
  // coin-flip node vs link churn, ceilings at 2n, coin-flip repairs past
  // 4 standing faults.
  Xoshiro256ss rng = exp::substream(config_.seed, kChurnStream, 0);
  fault::FaultSet faults(cube_.num_nodes());
  fault::LinkFaultSet links(cube_);
  const std::uint64_t node_ceiling = 2 * cube_.dimension();
  const std::size_t link_ceiling = 2 * cube_.dimension();
  for (std::uint64_t e = 0; e < config_.epochs; ++e) {
    if (rng.chance(0.5)) {
      const bool repair = faults.count() >= node_ceiling ||
                          (faults.count() > 4 && rng.chance(0.3));
      if (repair) {
        const auto faulty = faults.faulty_nodes();
        const NodeId back = faulty[rng.below(faulty.size())];
        faults.mark_healthy(back);
        oracle.remove_fault(back);
      } else {
        NodeId victim;
        do {
          victim = static_cast<NodeId>(rng.below(cube_.num_nodes()));
        } while (faults.is_faulty(victim));
        faults.mark_faulty(victim);
        oracle.add_fault(victim);
      }
    } else {
      const bool repair = links.count() >= link_ceiling ||
                          (links.count() > 4 && rng.chance(0.3));
      if (repair) {
        const auto faulty = links.faulty_links();
        const auto [a, d] = faulty[rng.below(faulty.size())];
        links.mark_healthy(a, d);
        oracle.recover_link(a, d);
      } else {
        NodeId a;
        Dim d;
        do {
          a = static_cast<NodeId>(rng.below(cube_.num_nodes()));
          d = static_cast<Dim>(rng.below(cube_.dimension()));
        } while (links.is_faulty(a, d));
        links.mark_faulty(a, d);
        oracle.fail_link(a, d);
      }
    }
    snapshots_.push_back(oracle.acquire());
  }
  SLC_ASSERT_MSG(snapshots_.size() == config_.epochs + 1,
                 "one snapshot per churn event plus epoch 0");
}

ServiceScript::Request ServiceScript::request(std::uint64_t i,
                                              std::uint64_t total) const {
  SLC_EXPECT_MSG(total > 0 && i < total, "request index in range");
  const std::uint64_t last = num_epochs() - 1;
  Request req;
  req.route_id = i;
  // Decision epochs advance linearly across the run: request i decides
  // on epoch floor(i * num_epochs / total), so every epoch serves an
  // equal contiguous block of requests.
  req.decision_epoch = std::min((i * num_epochs()) / total, last);
  Xoshiro256ss rng = exp::substream(config_.seed, kRequestStream, i);
  std::uint64_t lag = 0;
  if (config_.stale_chance > 0.0 && config_.max_lag > 0 &&
      rng.chance(config_.stale_chance)) {
    lag = 1 + rng.below(config_.max_lag);
  }
  req.ground_epoch = std::min(req.decision_epoch + lag, last);
  const auto pair =
      sample_uniform_pair(snapshots_[req.decision_epoch]->faults, rng);
  if (pair) {
    req.has_pair = true;
    req.s = pair->s;
    req.d = pair->d;
  }
  return req;
}

svc::ServeResult ServiceScript::serve(const Request& req,
                                      const svc::ServeOptions& opts) const {
  SLC_EXPECT_MSG(req.has_pair, "serve() needs a sampled pair");
  return svc::serve_route(*snapshots_.at(req.decision_epoch),
                          *snapshots_.at(req.ground_epoch), req.s, req.d,
                          opts);
}

std::uint64_t ServiceScript::epoch_activation(std::uint64_t epoch,
                                              std::uint64_t total) const {
  // Inverse of the linear mapping in request(): the smallest i with
  // floor(i * num_epochs / total) == epoch is ceil(epoch * total / E).
  const std::uint64_t e = num_epochs();
  return (epoch * total + e - 1) / e;
}

void ServiceScript::emit_epoch_events(obs::TraceSink& sink,
                                      std::uint64_t total) const {
  for (const svc::SnapshotPtr& snap : snapshots_) {
    obs::EpochPublishEvent ev = svc::make_epoch_event(*snap);
    ev.ts = epoch_activation(snap->epoch, total);
    sink.on_event(ev);
  }
}

obs::RouteSummary ServiceScript::summarize(const Request& req,
                                           const svc::ServeResult& res) {
  obs::RouteSummary s;
  s.route_id = req.route_id;
  s.decision_epoch = res.decision_epoch;
  s.ground_epoch = res.ground_epoch;
  s.status = core::to_string(res.status);
  s.status_code = static_cast<std::uint8_t>(res.status);
  s.hops = res.hops();
  s.dropped = res.dropped();
  s.detour = res.status == svc::ServeStatus::kDeliveredSuboptimal;
  s.misroute = false;  // no diagnosis layer in the scripted workload
  return s;
}

}  // namespace slcube::workload
