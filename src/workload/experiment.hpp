// Sweep drivers: the machinery behind every bench binary. A sweep fixes a
// cube dimension, varies the fault count, and for each point runs many
// independent trials (fresh fault set, fresh unicast pairs), aggregating
// RoutingMetrics per router. Trials run on the shared exp::SweepEngine:
// counter-based per-trial RNG substreams and a trial-order fold make
// every aggregate bit-identical at any worker count.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "diag/decoder.hpp"
#include "exp/sweep_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "routing/router.hpp"
#include "workload/metrics.hpp"

namespace slcube::workload {

enum class InjectionKind : std::uint8_t {
  kUniform,    ///< uniform random node faults (the paper's Fig. 2 setup)
  kClustered,  ///< faults concentrated around a random center
  kIsolation,  ///< one node's full neighborhood killed (disconnects)
  kStar,       ///< a center plus min(count-1, n) of its neighbors
  kPath,       ///< `count` nodes along one Gray-code path
};

struct SweepConfig {
  unsigned dimension = 7;
  std::vector<std::uint64_t> fault_counts;
  unsigned trials = 200;  ///< fault configurations per point
  unsigned pairs = 32;    ///< unicast pairs per configuration
  std::uint64_t seed = 0x5A11CE;
  /// Sweep-engine workers (0 = one per hardware thread, 1 = serial).
  /// Results are identical for every value — only wall time changes.
  unsigned threads = 0;
  InjectionKind injection = InjectionKind::kUniform;
  /// When non-null, one obs::SweepPointEvent (timing, utilization,
  /// latency percentiles, flattened result metrics) is emitted per point
  /// — attach an obs::JsonlSink to get the machine-readable stream the
  /// bench binaries expose as --jsonl.
  obs::TraceSink* trace = nullptr;
  /// Telemetry hooks (all optional): `registry` replaces the engine's
  /// internal one and additionally receives route.requests/delivered,
  /// route.hops, and per-dimension hops.dim.<k> from the first router;
  /// `profiler` turns on stage marking in workers; `recorder` is ticked
  /// once per sweep point (a deterministic barrier).
  obs::InstrumentationHooks instrumentation;
};

/// Creates one fresh instance of every router under test; called once per
/// trial with a trial-local seed (routers may hold per-instance RNG state).
using RouterFactory = std::function<
    std::vector<std::unique_ptr<routing::Router>>(std::uint64_t seed)>;

struct SweepPoint {
  std::uint64_t fault_count = 0;
  /// Keyed by Router::name(), in factory order.
  std::vector<std::pair<std::string, RoutingMetrics>> per_router;
  Ratio disconnected;  ///< fraction of fault configurations that split the cube
  RunningStat prepare_rounds;  ///< info-exchange rounds of the *first* router
  exp::EngineTiming timing;
};

/// Routing sweep: every router sees the identical fault sets and pairs.
[[nodiscard]] std::vector<SweepPoint> run_routing_sweep(
    const SweepConfig& config, const RouterFactory& factory);

/// Fig. 2 sweep: GS stabilization rounds (plus the LH/WF safe-node round
/// counts for the Section 2.3 comparison) versus fault count.
struct RoundsPoint {
  std::uint64_t fault_count = 0;
  RunningStat gs_rounds;
  RunningStat lh_rounds;
  RunningStat wf_rounds;
  RunningStat safe_level_n;  ///< |{level-n nodes}|
  RunningStat safe_lh;
  RunningStat safe_wf;
  Ratio disconnected;
  exp::EngineTiming timing;
};

[[nodiscard]] std::vector<RoundsPoint> run_rounds_sweep(
    unsigned dimension, const std::vector<std::uint64_t>& fault_counts,
    unsigned trials, std::uint64_t seed, obs::TraceSink* trace = nullptr,
    unsigned threads = 0, obs::InstrumentationHooks instrumentation = {});

/// Section-4.1 sweep: EGS routing under mixed node + link faults. Each
/// point fixes a (node-fault, link-fault) count pair; every trial samples
/// a fresh configuration, builds its two-view tables with core::run_egs,
/// and routes `pairs` unicasts on them, so the aggregates are
/// --threads-invariant like every other sweep here.
struct LinkSweepConfig {
  unsigned dimension = 7;
  /// One sweep point per (node faults, link faults) pair.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> points;
  unsigned trials = 200;  ///< fault configurations per point
  unsigned pairs = 24;    ///< unicast pairs per configuration
  std::uint64_t seed = 0xF164;
  unsigned threads = 0;  ///< sweep-engine workers (0 = hardware, 1 = serial)
  /// Per-point obs::SweepPointEvent stream (sweep = "links"); the
  /// fault_count field carries the node-fault count and the values map
  /// carries "link_faults".
  obs::TraceSink* trace = nullptr;
  /// Per-route EGS source/hop/done events. Fired from every worker
  /// concurrently — pass an internally synchronized sink (AuditSink,
  /// RingBufferSink) or run with threads = 1.
  obs::TraceSink* route_trace = nullptr;
  /// Telemetry hooks, same contract as SweepConfig::instrumentation.
  obs::InstrumentationHooks instrumentation;
};

struct LinkSweepPoint {
  std::uint64_t node_faults = 0;
  std::uint64_t link_faults = 0;
  Ratio delivered;       ///< of all attempts
  Ratio refused;         ///< of all attempts (source refused: no C held)
  Ratio stuck;           ///< of all attempts (C2/C3 optimism ran aground)
  Ratio optimal;         ///< of deliveries: hops == H
  Ratio suboptimal;      ///< of deliveries: hops == H + 2
  Ratio valid_paths;     ///< of deliveries: path avoids faulty nodes AND links
  RunningStat n2_nodes;  ///< |N2| per sampled configuration
  exp::EngineTiming timing;
};

[[nodiscard]] std::vector<LinkSweepPoint> run_link_routing_sweep(
    const LinkSweepConfig& config);

/// Diagnosis sweep: route on what the system BELIEVES is broken. Every
/// trial samples a ground-truth fault set, runs the configured test
/// model + decoder (src/diag) to obtain the presumed set, stabilizes a
/// level table for EACH world, and routes `pairs` unicasts with
/// diag::route_diagnosed — the plan follows the diagnosed tables, the
/// verdict (delivery, drop, misroute class) follows the ground truth.
/// The ground-truth arm (`ground_truth_arm`) shorts the diagnosis out
/// (presumed == ground) through the identical code path, so arm deltas
/// measure diagnosis error and nothing else.
struct DiagSweepConfig {
  unsigned dimension = 6;
  std::vector<std::uint64_t> fault_counts;
  unsigned trials = 120;  ///< fault configurations per point
  unsigned pairs = 24;    ///< unicast pairs per configuration
  std::uint64_t seed = 0xD1A6;
  unsigned threads = 0;  ///< sweep-engine workers (0 = hardware, 1 = serial)
  InjectionKind injection = InjectionKind::kUniform;
  diag::SyndromeConfig syndrome;
  diag::DecoderConfig decoder;
  /// Skip the syndrome machinery and route on the ground truth itself —
  /// the control arm every diagnosed arm is compared against.
  bool ground_truth_arm = false;
  /// When non-null, every trial uses this exact placement instead of
  /// sampling one (the adversarial-search arm); `fault_counts` is
  /// ignored except for producing one sweep point per entry.
  const fault::FaultSet* fixed_faults = nullptr;
  /// Per-point obs::SweepPointEvent stream (sweep = "diag").
  obs::TraceSink* trace = nullptr;
  /// Per-route source/hop/done/misroute events. Fired from every worker
  /// concurrently — pass an internally synchronized sink (AuditSink,
  /// RingBufferSink) or run with threads = 1.
  obs::TraceSink* route_trace = nullptr;
  obs::InstrumentationHooks instrumentation;
};

struct DiagSweepPoint {
  std::uint64_t fault_count = 0;
  // --- diagnosis quality ---
  RunningStat missed;              ///< ground faults the decoder cleared
  RunningStat false_accusations;   ///< healthy nodes the decoder condemned
  Ratio exact_diagnosis;           ///< trials diagnosed perfectly
  // --- routing outcomes, judged against ground truth ---
  Ratio delivered;   ///< of attempts: the replay reached the destination
  Ratio refused;     ///< of attempts: the plan refused at the source
  Ratio dropped;     ///< of attempts: the replay died at a missed fault
  Ratio optimal;     ///< of ground deliveries: planned optimal (H hops)
  Ratio misrouted;   ///< of attempts: misroute class != none
  std::uint64_t false_rejects = 0;
  std::uint64_t optimism_drops = 0;
  std::uint64_t pessimism_detours = 0;
  /// Order-sensitive fold of every trial's integer tallies — two runs
  /// agree on the digest iff they agree on every trial (the --threads
  /// invariance witness benches gate on).
  std::uint64_t digest = 0;
  exp::EngineTiming timing;
};

[[nodiscard]] std::vector<DiagSweepPoint> run_diagnosis_sweep(
    const DiagSweepConfig& config);

}  // namespace slcube::workload
