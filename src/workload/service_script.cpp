#include "workload/service_script.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "exp/sweep_engine.hpp"
#include "workload/churn.hpp"
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

  // The serving workloads' churn policy (workload/churn.hpp), seeded
  // from the script's own substream.
  Xoshiro256ss rng = exp::substream(config_.seed, kChurnStream, 0);
  fault::FaultSet faults(cube_.num_nodes());
  fault::LinkFaultSet links(cube_);
  for (std::uint64_t e = 0; e < config_.epochs; ++e) {
    apply_churn(oracle, next_churn(cube_, faults, links, rng));
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
