// slcube::exp — the shared parallel sweep engine.
//
// Every experiment binary used to hand-roll the same trial loop: a master
// RNG, a per-trial fork, ad-hoc chunking over the process thread pool and
// a hand-merged accumulator per chunk. This unit factors that loop into
// one engine with three hard guarantees:
//
//  * Determinism — the RNG substream of trial t is a pure function of
//    (engine seed, stream id, t), derived through a SplitMix64-style
//    counter mix, never from which worker ran the trial or in what
//    order. map() returns per-trial results indexed by trial, and
//    fold()/callers reduce them in trial order, so every aggregate is
//    bit-identical at any --threads value.
//  * Parallelism — trials are statically chunked over a dedicated
//    common/thread_pool (experiments are embarrassingly parallel;
//    chunking is the whole scheduler).
//  * Observability — the engine owns an obs::Registry. Counter writes
//    from worker threads land in the registry's per-thread shards and
//    scrape() merges them, so trial bodies can count events without any
//    hot-path synchronization; per-point wall/utilization/latency
//    percentiles come back through EngineTiming.
//
// Worker-scoped caches (e.g. a core::SafetyOracle reused across the
// trials of one chunk for incremental level updates) are indexed by
// TrialContext::worker; they are sound as long as the cached state
// cannot change a trial's *result* — the oracle qualifies because its
// table is always bit-identical to a from-scratch recomputation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"

namespace slcube::exp {

/// SplitMix64 finalizer: a full-avalanche 64-bit mix.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Counter-based substream: the generator for trial `trial` of stream
/// `stream` under `seed`. A pure function of its arguments — the heart
/// of the any-thread-count determinism guarantee.
[[nodiscard]] constexpr Xoshiro256ss substream(std::uint64_t seed,
                                               std::uint64_t stream,
                                               std::uint64_t trial) noexcept {
  std::uint64_t h = seed;
  h = mix64(h ^ (0x9e3779b97f4a7c15ull * (stream + 1)));
  h = mix64(h ^ (0xbf58476d1ce4e5b9ull * (trial + 1)));
  return Xoshiro256ss(h);
}

struct EngineOptions {
  /// Worker threads; 0 = one per hardware thread, 1 = serial.
  unsigned threads = 0;
  std::uint64_t seed = 0x5EED0A11;
  /// Write metrics into this registry instead of an engine-owned one
  /// (telemetry drivers share one registry across engine and workload).
  /// Non-owning; must outlive the engine.
  obs::Registry* registry = nullptr;
  /// When set, workers run with this profiler installed and the engine
  /// marks "trial" / "engine.rng" stages. Null = none installed: each
  /// stage marker costs one thread-local load and a null check.
  obs::Profiler* profiler = nullptr;
};

/// Wall-clock profile of one map() or map_fold() call — and so of one
/// workload sweep point, which is one map(): wall time, busy-worker
/// utilization, per-trial latency histogram.
struct EngineTiming {
  double wall_ms = 0.0;
  /// Busy worker time / (wall time * workers); 1.0 = perfectly parallel,
  /// low values = workers starved (too few trials per point).
  double utilization = 0.0;
  obs::HistogramData trial_latency_us;  ///< per-trial wall time
};

/// 1µs .. ~34s in doubling buckets — wide enough for any trial we run.
[[nodiscard]] std::vector<double> trial_latency_bounds();

struct TrialContext {
  std::size_t trial = 0;   ///< global trial index within the map() call
  std::size_t worker = 0;  ///< worker slot in [0, workers()); stable for
                           ///< the whole chunk — index worker caches by it
  Xoshiro256ss rng;        ///< this trial's private substream
};

class SweepEngine {
 public:
  explicit SweepEngine(EngineOptions options = {});

  [[nodiscard]] std::size_t workers() const noexcept { return pool_.size(); }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  /// The engine's sharded metrics registry (or the external one from
  /// EngineOptions::registry). Counters registered here can be
  /// incremented freely from trial bodies; scrape() merges shards.
  [[nodiscard]] obs::Registry& metrics() noexcept { return *registry_; }

  /// Run trials 0..trials-1 of substream family `stream` through `body`
  /// (signature R(TrialContext&)) and return the results in trial order.
  /// R must be default-constructible and movable. The same (seed, stream,
  /// trials, body) always produces the same vector, at any worker count.
  /// `trial_offset` shifts the substream (and TrialContext::trial) by a
  /// constant, so a driver can split one logical run into batches —
  /// taking a telemetry tick between them — without changing any trial's
  /// RNG: map(s, n, b) ≡ map(s, k, b, ..., 0) ++ map(s, n-k, b, ..., k).
  template <typename R, typename Body>
  std::vector<R> map(std::uint64_t stream, std::size_t trials, Body&& body,
                     EngineTiming* timing = nullptr,
                     std::size_t trial_offset = 0) {
    std::vector<R> out(trials);
    run_chunks(stream, trials, trial_offset, timing,
               [&](std::size_t, std::size_t t, TrialContext& ctx) {
                 out[t] = body(ctx);
               });
    return out;
  }

  /// map() without materializing per-trial results — the mega-cube entry
  /// point, where a Q16+ sweep runs 10^6 trials and a std::vector<R> of
  /// per-trial tallies is pure allocator pressure. Each worker folds its
  /// chunk's results into a chunk-local Acc in ascending trial order
  /// (acc = Acc{}; merge(acc, r_t) for t = begin..end-1), and the chunk
  /// accumulators are merged left-to-right in chunk order. Chunks are
  /// contiguous ascending ranges, so the merge sequence concatenates to
  /// global trial order — the result is bit-identical at any worker
  /// count as long as (Acc, merge) is a fold homomorphism (sums, xors of
  /// per-trial mixes, min/max all qualify; an order-sensitive hash chain
  /// does not).
  template <typename Acc, typename Body, typename MergeTrial,
            typename MergeAcc>
  Acc map_fold(std::uint64_t stream, std::size_t trials, Body&& body,
               MergeTrial&& merge_trial, MergeAcc&& merge_acc,
               EngineTiming* timing = nullptr, std::size_t trial_offset = 0) {
    std::vector<Acc> accs(std::max<std::size_t>(1, pool_.size()));
    run_chunks(stream, trials, trial_offset, timing,
               [&](std::size_t chunk, std::size_t, TrialContext& ctx) {
                 merge_trial(accs[chunk], body(ctx));
               });
    Acc out{};
    for (Acc& a : accs) merge_acc(out, a);
    return out;
  }

 private:
  /// The one timed chunk loop behind map() and map_fold(): runs
  /// `trial(chunk, t, ctx)` for every t in [0, trials), chunk by chunk,
  /// with ctx holding trial t's substream. Each worker installs the
  /// engine's profiler only when one is set; otherwise the "trial" and
  /// "engine.rng" stage scopes find no profiler and do nothing.
  template <typename Trial>
  void run_chunks(std::uint64_t stream, std::size_t trials,
                  std::size_t trial_offset, EngineTiming* timing,
                  Trial&& trial) {
    const std::size_t slots = std::max<std::size_t>(1, pool_.size());
    std::vector<double> busy_ms(slots, 0.0);
    std::vector<obs::HistogramData> latency(
        slots, obs::HistogramData(trial_latency_bounds()));
    const obs::Stopwatch wall;
    parallel_for_chunks(
        pool_, trials,
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          const obs::Stopwatch busy;
          const obs::ProfilerThreadGuard profiled(
              profiler_ != nullptr ? profiler_ : obs::Profiler::current());
          for (std::size_t t = begin; t < end; ++t) {
            const obs::Stopwatch trial_clock;
            const obs::StageScope trial_stage("trial");
            TrialContext ctx = [&] {
              const obs::StageScope rng_stage("engine.rng");
              return TrialContext{trial_offset + t, chunk,
                                  substream(seed_, stream, trial_offset + t)};
            }();
            trial(chunk, t, ctx);
            latency[chunk].observe(trial_clock.micros());
            trials_run_.inc();
          }
          busy_ms[chunk] = busy.millis();
        });
    if (timing == nullptr) return;
    timing->wall_ms = wall.millis();
    timing->trial_latency_us = obs::HistogramData(trial_latency_bounds());
    double busy_total = 0.0;
    for (std::size_t c = 0; c < slots; ++c) {
      busy_total += busy_ms[c];
      timing->trial_latency_us.merge(latency[c]);
    }
    const double capacity_ms = timing->wall_ms * static_cast<double>(slots);
    timing->utilization = capacity_ms > 0.0 ? busy_total / capacity_ms : 0.0;
  }

  ThreadPool pool_;
  std::uint64_t seed_;
  obs::Registry metrics_;     ///< declared before the handles bound to it
  obs::Registry* registry_;   ///< &metrics_ or the external override
  obs::Profiler* profiler_;   ///< null = profiling off
  obs::Counter trials_run_;   ///< "exp.trials_run"
};

/// Reduce per-trial results in trial order (the deterministic fold):
/// merge(acc, results[0]), merge(acc, results[1]), ...
template <typename Acc, typename R, typename Merge>
[[nodiscard]] Acc fold(const std::vector<R>& results, Acc acc, Merge&& merge) {
  for (const R& r : results) merge(acc, r);
  return acc;
}

}  // namespace slcube::exp
