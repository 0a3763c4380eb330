// workload::ServiceScript — a fully deterministic serving workload for
// the sampled-tracing benches and tests. The live bench_service workload
// interleaves a wall-clock churn writer with racing readers, so its
// per-route outcomes depend on scheduling; this script removes the race
// by *pre-publishing* the whole epoch chain:
//
//   * construction drives a svc::SnapshotOracle through `epochs`
//     deterministic churn events (workload::next_churn, the policy the
//     live bench writer uses, seeded by exp::substream) and retains
//     every published SnapshotPtr;
//   * each request i is a pure function of (config, i, total): its
//     decision epoch advances linearly across the run, its ground epoch
//     leads by a small seeded lag with probability `stale_chance`
//     (modeling mid-flight churn), and its endpoint pair is sampled from
//     the decision snapshot's healthy nodes with a per-request
//     substream;
//   * serving uses the deterministic serve_route(decision, ground, ...)
//     overload, so status / path / hops are interleaving-free.
//
// Identical requests at any thread count and any execution order — the
// property the SamplingSink's promoted-digest thread-invariance gate
// (BENCH_SAMPLING.json) is built on. The time axis of a scripted run is
// the request index: epoch e "activates" at the first request whose
// decision epoch is e, which is what emit_epoch_events stamps into the
// epoch_publish lineage (and what the timeline exporter plots).
#pragma once

#include <cstdint>
#include <vector>

#include "obs/sampling.hpp"
#include "obs/trace.hpp"
#include "svc/serve.hpp"
#include "svc/snapshot_oracle.hpp"
#include "topology/hypercube.hpp"

namespace slcube::workload {

struct ServiceScriptConfig {
  unsigned dim = 10;
  std::uint64_t seed = 0x5E51CE;
  /// Churn events (= published epochs beyond epoch 0).
  std::uint64_t epochs = 64;
  /// Per-request probability that the ground epoch leads the decision
  /// epoch (the scripted form of "the writer published mid-route").
  /// The default models a heavy-churn tail: ~1% of routes anomalous.
  double stale_chance = 0.01;
  /// Ground lead is uniform in [1, max_lag] epochs (clamped to the last
  /// published epoch).
  std::uint64_t max_lag = 4;
};

class ServiceScript {
 public:
  explicit ServiceScript(const ServiceScriptConfig& config);

  [[nodiscard]] const topo::Hypercube& cube() const noexcept { return cube_; }
  [[nodiscard]] const ServiceScriptConfig& config() const noexcept {
    return config_;
  }
  /// Published epochs, including epoch 0 (== config.epochs + 1).
  [[nodiscard]] std::uint64_t num_epochs() const noexcept {
    return snapshots_.size();
  }
  [[nodiscard]] const svc::SnapshotPtr& snapshot(std::uint64_t epoch) const {
    return snapshots_.at(epoch);
  }

  /// One scripted request, decided entirely by (config, i, total).
  struct Request {
    std::uint64_t route_id = 0;
    std::uint64_t decision_epoch = 0;
    std::uint64_t ground_epoch = 0;
    NodeId s = 0;
    NodeId d = 0;
    bool has_pair = false;  ///< false when < 2 healthy nodes (never on Q10)
  };
  [[nodiscard]] Request request(std::uint64_t i, std::uint64_t total) const;

  /// Serve request i deterministically (decision and ground snapshots
  /// from the pre-published chain).
  [[nodiscard]] svc::ServeResult serve(const Request& req,
                                       const svc::ServeOptions& opts = {}) const;

  /// First request index whose decision epoch is `epoch` — the epoch's
  /// activation point on the scripted time axis.
  [[nodiscard]] std::uint64_t epoch_activation(std::uint64_t epoch,
                                               std::uint64_t total) const;

  /// Emit the whole epoch lineage as epoch_publish events with ts
  /// re-stamped to the activation request index (see the file comment).
  void emit_epoch_events(obs::TraceSink& sink, std::uint64_t total) const;

  /// Fold a served result into the sampler's route-summary shape.
  [[nodiscard]] static obs::RouteSummary summarize(const Request& req,
                                                   const svc::ServeResult& res);

 private:
  ServiceScriptConfig config_;
  topo::Hypercube cube_;
  std::vector<svc::SnapshotPtr> snapshots_;
};

}  // namespace slcube::workload
