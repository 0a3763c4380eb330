#include "obs/profiler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>

namespace slcube::obs {

using Clock = std::chrono::steady_clock;

/// One thread's private stage tree. Node 0 is a synthetic root whose
/// children are the thread's top-level stages. The open-stage stack keeps
/// (node index, entry time); only closed stages contribute time.
struct Profiler::Arena {
  struct Node {
    const char* name = nullptr;
    int parent = -1;
    int first_child = -1;
    int next_sibling = -1;
    std::uint64_t count = 0;
    std::uint64_t ns = 0;
  };

  mutable std::mutex mutex;  ///< owner-thread writes, report() reads
  std::vector<Node> nodes{Node{}};
  int current = 0;
  std::vector<std::pair<int, Clock::time_point>> stack;

  void enter(const char* name) {
    std::lock_guard lock(mutex);
    int child = nodes[static_cast<std::size_t>(current)].first_child;
    int prev = -1;
    while (child != -1) {
      if (std::strcmp(nodes[static_cast<std::size_t>(child)].name, name) ==
          0) {
        break;
      }
      prev = child;
      child = nodes[static_cast<std::size_t>(child)].next_sibling;
    }
    if (child == -1) {
      child = static_cast<int>(nodes.size());
      Node n;
      n.name = name;
      n.parent = current;
      nodes.push_back(n);
      if (prev == -1) {
        nodes[static_cast<std::size_t>(current)].first_child = child;
      } else {
        nodes[static_cast<std::size_t>(prev)].next_sibling = child;
      }
    }
    stack.emplace_back(child, Clock::now());
    current = child;
  }

  void exit() {
    const auto now = Clock::now();
    std::lock_guard lock(mutex);
    const auto [idx, start] = stack.back();
    stack.pop_back();
    Node& n = nodes[static_cast<std::size_t>(idx)];
    n.ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - start)
            .count());
    ++n.count;
    current = n.parent;
  }
};

namespace {

thread_local Profiler* tl_profiler = nullptr;

std::atomic<std::uint64_t> next_profiler_id{1};

}  // namespace

Profiler::Profiler() : id_(next_profiler_id.fetch_add(1)) {}

Profiler::~Profiler() {
  // Threads attached via ProfilerThreadGuard must have detached (guard
  // destroyed) before the profiler dies; arenas are owned here.
  if (tl_profiler == this) tl_profiler = nullptr;
}

Profiler* Profiler::current() noexcept { return tl_profiler; }

Profiler::Arena& Profiler::arena_for_current_thread() {
  // One-entry thread-local cache, same shape as the metrics shard cache;
  // keyed by the never-reused id so a dangling pointer from a destroyed
  // profiler can never false-hit.
  thread_local std::uint64_t cached_owner = 0;
  thread_local Arena* cached_arena = nullptr;
  if (cached_owner == id_) return *cached_arena;
  std::lock_guard lock(mutex_);
  auto& slot = arenas_[std::this_thread::get_id()];
  if (!slot) slot = std::make_unique<Arena>();
  cached_owner = id_;
  cached_arena = slot.get();
  return *cached_arena;
}

namespace {

// Template so the (private) arena node type is deduced, never named.
template <typename ArenaNode>
void merge_node(const std::vector<ArenaNode>& nodes, int idx,
                std::vector<StageNode>& siblings) {
  const auto& n = nodes[static_cast<std::size_t>(idx)];
  auto it = std::find_if(siblings.begin(), siblings.end(),
                         [&](const StageNode& s) { return s.name == n.name; });
  if (it == siblings.end()) {
    StageNode fresh;
    fresh.name = n.name;
    it = siblings.insert(
        std::upper_bound(siblings.begin(), siblings.end(), fresh,
                         [](const StageNode& a, const StageNode& b) {
                           return a.name < b.name;
                         }),
        std::move(fresh));
  }
  it->count += n.count;
  it->total_us += static_cast<double>(n.ns) / 1000.0;
  for (int c = n.first_child; c != -1;
       c = nodes[static_cast<std::size_t>(c)].next_sibling) {
    merge_node(nodes, c, it->children);
  }
}

void derive_self(StageNode& node) {
  double child_total = 0.0;
  for (StageNode& c : node.children) {
    derive_self(c);
    child_total += c.total_us;
  }
  node.self_us = std::max(0.0, node.total_us - child_total);
}

}  // namespace

StageReport Profiler::report() const {
  StageReport out;
  std::lock_guard lock(mutex_);
  for (const auto& [tid, arena] : arenas_) {
    std::lock_guard arena_lock(arena->mutex);
    if (arena->nodes.size() <= 1) continue;
    ++out.threads;
    for (int c = arena->nodes[0].first_child; c != -1;
         c = arena->nodes[static_cast<std::size_t>(c)].next_sibling) {
      merge_node(arena->nodes, c, out.roots);
    }
  }
  for (StageNode& root : out.roots) derive_self(root);
  return out;
}

double StageReport::total_us() const {
  double sum = 0.0;
  for (const StageNode& r : roots) sum += r.total_us;
  return sum;
}

ProfilerThreadGuard::ProfilerThreadGuard(Profiler* profiler) noexcept
    : previous_(tl_profiler) {
  tl_profiler = profiler;
}

ProfilerThreadGuard::~ProfilerThreadGuard() { tl_profiler = previous_; }

StageScope::StageScope(const char* name) noexcept {
  Profiler* prof = tl_profiler;
  if (prof == nullptr) return;
  arena_ = &prof->arena_for_current_thread();
  arena_->enter(name);
}

StageScope::~StageScope() {
  if (arena_ != nullptr) arena_->exit();
}

}  // namespace slcube::obs
