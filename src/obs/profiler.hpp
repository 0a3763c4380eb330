// slcube::obs — the stage profiler: cheap scoped RAII stage markers
// aggregated per-thread into a self/total stage tree, so a bench can say
// where the wall time of a sweep went (oracle cascade vs route loop vs
// engine overhead) without a sampling profiler.
//
// Cost model: a StageScope costs one thread-local load plus a null check
// when no profiler is installed on the thread — the same discipline as
// the nullable TraceSink* guards in trace.hpp. Profiling turns on per
// thread via ProfilerThreadGuard (the sweep engine installs one per
// worker chunk when EngineOptions::profiler is set), never globally, so
// untelemetered code paths pay nothing else.
//
// Aggregation: each attached thread owns an arena holding its private
// stage tree (nodes keyed by name under their parent). report() merges
// every arena into one StageReport by stage-name path and derives self
// time (total minus the sum of child totals). Arena updates take the
// arena's own (virtually uncontended) mutex, so report() may run from
// another thread — but a stage's time is only added when its scope
// *closes*, so call report() after the profiled region finished (the
// engine guarantees this: map() has returned before anyone reports).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace slcube::obs {

/// One merged stage: wall time of every entry into this stage (total),
/// the part not attributed to a child stage (self), and the entry count.
struct StageNode {
  std::string name;
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
  std::vector<StageNode> children;  ///< sorted by name (stable output)
};

struct StageReport {
  std::vector<StageNode> roots;  ///< sorted by name
  unsigned threads = 0;          ///< arenas that recorded at least one stage

  [[nodiscard]] bool empty() const { return roots.empty(); }
  /// Sum of root totals — the profiled wall time across all threads.
  [[nodiscard]] double total_us() const;
};

class Profiler {
 public:
  Profiler();
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Merge every thread arena into one tree. Safe to call while attached
  /// threads are alive, but only stages that already *closed* are
  /// counted — call it after the profiled region completed.
  [[nodiscard]] StageReport report() const;

  /// The profiler installed on the calling thread, or null.
  [[nodiscard]] static Profiler* current() noexcept;

 private:
  friend class StageScope;
  friend class ProfilerThreadGuard;

  struct Arena;
  [[nodiscard]] Arena& arena_for_current_thread();

  const std::uint64_t id_;    ///< never-reused identity (cache safety)
  mutable std::mutex mutex_;  ///< guards arenas_ (the map, not contents)
  std::map<std::thread::id, std::unique_ptr<Arena>> arenas_;
};

/// Installs a profiler as Profiler::current() for the calling thread for
/// the guard's lifetime; restores the previous value on destruction, so
/// guards nest. A null profiler is a supported no-op (profiling off).
class ProfilerThreadGuard {
 public:
  explicit ProfilerThreadGuard(Profiler* profiler) noexcept;
  ~ProfilerThreadGuard();
  ProfilerThreadGuard(const ProfilerThreadGuard&) = delete;
  ProfilerThreadGuard& operator=(const ProfilerThreadGuard&) = delete;

 private:
  Profiler* previous_;
};

/// RAII stage marker: when a profiler is installed on this thread, opens
/// a stage named `name` nested under the innermost open stage and closes
/// it on destruction. `name` must outlive the profiler (string literals
/// throughout the tree); equal *contents* merge, so the same stage name
/// used from different translation units is one stage.
class StageScope {
 public:
  explicit StageScope(const char* name) noexcept;
  ~StageScope();
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  Profiler::Arena* arena_ = nullptr;  ///< null = profiling off, full no-op
};

}  // namespace slcube::obs
