// A small work-stealing-free thread pool plus a blocked-range parallel_for,
// used by the experiment sweep driver. Experiments are embarrassingly
// parallel (independent trials), so static chunking is enough; per-chunk
// state (RNG forks, stat accumulators) keeps results deterministic and
// independent of thread count (Core Guidelines CP.2: avoid data races by
// design, not by locks on the hot path).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace slcube {

class ThreadPool {
 public:
  /// `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task. Tasks must not throw; a throwing task aborts.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Run body(chunk_index, begin, end) over [0, n) split into roughly equal
/// chunks, one chunk per pool thread (or serially if the pool has a single
/// thread). `body` must be safe to call concurrently on disjoint ranges.
void parallel_for_chunks(
    ThreadPool& pool, std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

/// Process-wide default pool (lazily constructed, sized to the hardware).
ThreadPool& default_pool();

}  // namespace slcube
