#include "harness.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>

#include "common/bitops.hpp"
#include "core/egs.hpp"
#include "exp/sweep_engine.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo),
                   v.end());
  const double a = v[lo];
  if (lo + 1 >= v.size()) return a;
  const double b =
      *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(lo) + 1, v.end());
  return a + (pos - static_cast<double>(lo)) * (b - a);
}

double canary_ns() {
  // A chain of 1024 dependent loads from a 1 MB table, run twice on the
  // same addresses; only the second, cache-warm pass is timed, so what the
  // workload left in the caches does not change it. The slow periods of
  // this host hit cache-bound code like this (and the workloads), while a
  // register-only loop barely notices them.
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(1u << 18);
    for (std::size_t i = 0; i < t.size(); ++i) {
      t[i] = static_cast<std::uint32_t>(i * 2654435761u);
    }
    return t;
  }();
  static volatile std::uint64_t sink = 0;
  const auto chain = [](std::uint64_t x) {
    for (int i = 0; i < 1024; ++i) {
      x = x * 6364136223846793005ull + table[(x >> 40) & (table.size() - 1)];
    }
    return x;
  };
  const std::uint64_t seed = sink + 1;
  sink = chain(seed);
  const std::int64_t t0 = now_ns();
  sink = chain(seed);
  return static_cast<double>(now_ns() - t0);
}

void SliceMeter::end(std::uint64_t routes, std::uint64_t events) {
  const std::int64_t t1 = now_ns();
  Slice sl;
  sl.seconds = static_cast<double>(t1 - t0_) / 1e9;
  sl.routes = routes;
  sl.events = events;
  sl.canary = std::max(canary_, canary_ns());
  sl.group = group_;
  sl.route_end = routes_kept_;
  sl.event_end = events_kept_;
  slices_.push_back(sl);
}

SliceSummary SliceSummary::of(const std::vector<const SliceMeter*>& meters) {
  SliceSummary out;
  std::vector<double> canaries;
  for (const SliceMeter* m : meters) {
    for (const auto& sl : m->slices_) canaries.push_back(sl.canary);
  }
  out.slices = canaries.size();
  for (const double q : {0.01, 0.25, 0.5, 0.75, 0.99}) {
    out.canary_quartiles.push_back(quantile(canaries, q));
  }
  const double limit = 1.2 * quantile(canaries, 0.01);
  for (const SliceMeter* m : meters) {
    for (const auto& sl : m->slices_) {
      if (sl.canary <= limit) ++out.fast_slices;
    }
  }
  const bool all = out.fast_slices < 20;
  if (all) out.fast_slices = out.slices;

  std::vector<double> event_ns;
  std::vector<double> pooled_ns;  // fallback when no group reaches 1000
  std::vector<double> group_p50;
  std::vector<double> group_p99;
  for (const SliceMeter* m : meters) {
    double secs = 0.0;
    std::uint64_t routes = 0;
    std::uint64_t events = 0;
    std::vector<double> group_ns;
    const auto close_group = [&] {
      out.route_samples += group_ns.size();
      pooled_ns.insert(pooled_ns.end(), group_ns.begin(), group_ns.end());
      if (group_ns.size() >= 100) group_p50.push_back(quantile(group_ns, 0.5));
      if (group_ns.size() >= 1000) group_p99.push_back(quantile(group_ns, 0.99));
      group_ns.clear();
    };
    std::size_t route_begin = 0;
    std::size_t event_begin = 0;
    for (std::size_t i = 0; i < m->slices_.size(); ++i) {
      const auto& sl = m->slices_[i];
      if (i > 0 && sl.group != m->slices_[i - 1].group) close_group();
      if (all || sl.canary <= limit) {
        secs += sl.seconds;
        routes += sl.routes;
        events += sl.events;
        group_ns.insert(group_ns.end(), m->route_ns_.begin() + static_cast<std::ptrdiff_t>(route_begin),
                        m->route_ns_.begin() + static_cast<std::ptrdiff_t>(sl.route_end));
        event_ns.insert(event_ns.end(), m->event_ns_.begin() + static_cast<std::ptrdiff_t>(event_begin),
                        m->event_ns_.begin() + static_cast<std::ptrdiff_t>(sl.event_end));
      }
      route_begin = sl.route_end;
      event_begin = sl.event_end;
    }
    close_group();
    if (secs > 0.0) {
      out.routes_per_s += static_cast<double>(routes) / secs;
      out.events_per_s += static_cast<double>(events) / secs;
    }
  }
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  out.route_p50_us = (group_p50.empty() ? quantile(pooled_ns, 0.5)
                                         : mean(group_p50)) / 1e3;
  out.route_p99_us = (group_p99.empty() ? quantile(pooled_ns, 0.99)
                                        : mean(group_p99)) / 1e3;
  out.event_samples = event_ns.size();
  out.event_p50_us = quantile(event_ns, 0.5) / 1e3;
  out.event_p99_us = quantile(std::move(event_ns), 0.99) / 1e3;
  out.groups = group_p99.size();
  return out;
}

std::string SliceSummary::describe() const {
  std::string canary;
  for (const double c : canary_quartiles) {
    canary += ' ';
    canary += std::to_string(c);
  }
  return std::to_string(fast_slices) + " of " + std::to_string(slices) +
         " slices at full speed (canary p01/25/50/75/99 ns:" + canary +
         "); " + std::to_string(groups) +
         " CPU placement groups; latency samples: " +
         std::to_string(route_samples) + " routes, " +
         std::to_string(event_samples) + " writer calls";
}

const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(static_cast<std::size_t>(c), &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

void move_to_cpu(std::size_t k) {
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<std::size_t>(cpus[k % cpus.size()]), &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

void unpin() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : allowed_cpus()) {
    CPU_SET(static_cast<std::size_t>(c), &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

std::size_t rotation_cpu(std::size_t step, std::size_t t) {
  const std::size_t n = std::max<std::size_t>(allowed_cpus().size(), 2);
  return step + t * (1 + (step / n) % (n - 1));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::uint64_t minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

const char* to_string(Layer l) {
  switch (l) {
    case Layer::kHarness:
      return "harness";
    case Layer::kWorkload:
      return "workload";
    case Layer::kCore:
      return "core";
    case Layer::kSvc:
      return "svc";
    case Layer::kObs:
      return "obs";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------

ThreadTrace::ThreadTrace(unsigned thread, std::size_t keep)
    : thread_(thread), keep_(keep) {}

void ThreadTrace::begin(SpanId id) {
  Open& o = stack_.at(depth_);
  o.id = id;
  o.child_ns = 0;
  o.record = -1;
  if (kept_.capacity() == 0) kept_.reserve(keep_);
  if (kept_.size() < keep_) {
    o.record = static_cast<std::int32_t>(kept_.size());
    Record r;
    r.request = request_;
    r.parent = depth_ > 0 ? stack_[depth_ - 1].record : -1;
    r.id = id;
    r.thread = static_cast<std::uint8_t>(thread_);
    kept_.push_back(r);
  }
  ++depth_;
  o.start = now_ns();  // last, so the bookkeeping above is not charged
}

void ThreadTrace::end() {
  const std::int64_t t = now_ns();
  const Open& o = stack_.at(--depth_);
  const std::int64_t dur = t - o.start;
  ++count_[o.id];
  total_[o.id] += dur;
  self_[o.id] += dur - o.child_ns;
  if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
  if (o.record >= 0) {
    Record& r = kept_[static_cast<std::size_t>(o.record)];
    r.start = o.start;
    r.end = t;
  }
}

void ThreadTrace::merge(const ThreadTrace& o) {
  for (std::size_t i = 0; i < kNumSpans; ++i) {
    count_[i] += o.count_[i];
    total_[i] += o.total_[i];
    self_[i] += o.self_[i];
  }
}

void ThreadTrace::write(std::ostream& out) const {
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Record& r = kept_[i];
    const SpanInfo& info = kSpans[r.id];
    out << "{\"thread\":" << static_cast<unsigned>(r.thread) << ",\"span\":" << i
        << ",\"parent\":" << r.parent << ",\"request\":" << r.request
        << ",\"name\":\"" << info.name << "\",\"layer\":\""
        << to_string(info.layer) << "\",\"start_ns\":" << r.start
        << ",\"dur_ns\":" << (r.end - r.start) << "}\n";
  }
}

SliceSummary report_routes(const std::vector<const SliceMeter*>& meters,
                           Result& result) {
  const SliceSummary sum = SliceSummary::of(meters);
  result.metric("routes_per_s", sum.routes_per_s, "1/s");
  result.metric("route_p50_us", sum.route_p50_us, "us");
  result.metric("route_p99_us", sum.route_p99_us, "us");
  result.notes.push_back(sum.describe());
  return sum;
}

void report_self_time(const ThreadTrace& trace, Result& result) {
  std::array<double, kNumLayers> self{};
  double total = 0.0;
  for (std::size_t i = 0; i < kNumSpans; ++i) {
    const auto ns = static_cast<double>(trace.self_ns(static_cast<SpanId>(i)));
    self[static_cast<std::size_t>(kSpans[i].layer)] += ns;
    total += ns;
  }
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    result.metric(std::string(to_string(static_cast<Layer>(l))) + ".self_frac",
                  total > 0.0 ? self[l] / total : 0.0, "ratio");
  }
}

// ---------------------------------------------------------------------------

fault::FaultSet make_node_faults(const topo::Hypercube& cube,
                                 std::uint64_t count, std::uint64_t seed) {
  auto rng = exp::substream(seed, 1000 + cube.dimension(), 0);
  fault::FaultSet f(cube.num_nodes());
  while (f.count() < count) {
    const auto v = static_cast<NodeId>(rng.below(cube.num_nodes()));
    if (f.is_healthy(v)) f.mark_faulty(v);
  }
  return f;
}

fault::LinkFaultSet make_link_faults(const topo::Hypercube& cube,
                                     const fault::FaultSet& faults,
                                     std::size_t count, std::uint64_t seed) {
  auto rng = exp::substream(seed, 2000 + cube.dimension(), 0);
  fault::LinkFaultSet links(cube);
  while (links.count() < count) {
    const auto a = static_cast<NodeId>(rng.below(cube.num_nodes()));
    const auto d = static_cast<Dim>(rng.below(cube.dimension()));
    if (faults.is_healthy(a) && faults.is_healthy(cube.neighbor(a, d))) {
      links.mark_faulty(a, d);
    }
  }
  return links;
}

ChurnScript::ChurnScript(const topo::Hypercube& cube,
                         const fault::FaultSet& faults,
                         const fault::LinkFaultSet& links,
                         std::uint64_t node_target, std::size_t link_target,
                         std::uint64_t seed)
    : cube_(cube),
      faults_(faults),
      links_(links),
      faulty_(faults.faulty_nodes()),
      faulty_links_(links.faulty_links()),
      node_target_(node_target),
      link_target_(link_target),
      rng_(exp::substream(seed, 3000 + cube.dimension(), 0)) {}

const ChurnEvent& ChurnScript::next() {
  ++events_;
  if (events_ % 8 == 0) {
    ev_.kind = ChurnEvent::Kind::kBatch;
    ev_.node_toggles.clear();
    ev_.link_toggles.clear();
    toggle_node(true);
    toggle_node(true);
    toggle_link(true);
    toggle_link(true);
  } else if (rng_.chance(0.5)) {
    toggle_node(false);
  } else {
    toggle_link(false);
  }
  return ev_;
}

void ChurnScript::toggle_node(bool batch) {
  const auto in_batch = [&](NodeId v) {
    return batch && std::find(ev_.node_toggles.begin(), ev_.node_toggles.end(),
                              v) != ev_.node_toggles.end();
  };
  const bool fail = faulty_.size() <= ev_.node_toggles.size() ||
                    rng_.chance(faulty_.size() < node_target_ ? 0.7 : 0.3);
  NodeId v = 0;
  if (fail) {
    do {
      v = static_cast<NodeId>(rng_.below(cube_.num_nodes()));
    } while (faults_.is_faulty(v) || in_batch(v));
    faults_.mark_faulty(v);
    faulty_.push_back(v);
  } else {
    std::size_t i = 0;
    do {
      i = rng_.below(faulty_.size());
    } while (in_batch(faulty_[i]));
    v = faulty_[i];
    faulty_[i] = faulty_.back();
    faulty_.pop_back();
    faults_.mark_healthy(v);
  }
  if (batch) {
    ev_.node_toggles.push_back(v);
  } else {
    ev_.kind = fail ? ChurnEvent::Kind::kNodeFail
                    : ChurnEvent::Kind::kNodeRecover;
    ev_.node = v;
  }
}

void ChurnScript::toggle_link(bool batch) {
  const auto canonical = [](NodeId a, Dim d) {
    return static_cast<NodeId>(a & ~bits::unit(d));
  };
  const auto in_batch = [&](NodeId a, Dim d) {
    if (!batch) return false;
    for (const auto& t : ev_.link_toggles) {
      if (t.dim == d && canonical(t.node, d) == canonical(a, d)) return true;
    }
    return false;
  };
  const bool fail =
      faulty_links_.size() <= ev_.link_toggles.size() ||
      rng_.chance(faulty_links_.size() < link_target_ ? 0.7 : 0.3);
  NodeId a = 0;
  Dim d = 0;
  if (fail) {
    do {
      a = static_cast<NodeId>(rng_.below(cube_.num_nodes()));
      d = static_cast<Dim>(rng_.below(cube_.dimension()));
    } while (links_.is_faulty(a, d) || in_batch(a, d));
    links_.mark_faulty(a, d);
    faulty_links_.emplace_back(a, d);
  } else {
    std::size_t i = 0;
    do {
      i = rng_.below(faulty_links_.size());
    } while (in_batch(faulty_links_[i].first, faulty_links_[i].second));
    std::tie(a, d) = faulty_links_[i];
    faulty_links_[i] = faulty_links_.back();
    faulty_links_.pop_back();
    links_.mark_healthy(a, d);
  }
  if (batch) {
    ev_.link_toggles.push_back({a, d});
  } else {
    ev_.kind = fail ? ChurnEvent::Kind::kLinkFail
                    : ChurnEvent::Kind::kLinkRecover;
    ev_.node = a;
    ev_.dim = d;
  }
}

// ---------------------------------------------------------------------------

std::uint64_t route_mix(std::uint64_t index, unsigned status, unsigned hops) {
  return exp::mix64((index + 1) * 0x9e3779b97f4a7c15ull ^
                    (static_cast<std::uint64_t>(status) + 1) *
                        0xbf58476d1ce4e5b9ull ^
                    hops);
}

std::uint64_t path_mix(std::uint64_t index, const svc::ServeResult& r) {
  std::uint64_t h = exp::mix64(index + 1);
  h = exp::mix64(h ^ (static_cast<std::uint64_t>(r.decision.c1) |
                      static_cast<std::uint64_t>(r.decision.c2) << 1 |
                      static_cast<std::uint64_t>(r.decision.c3) << 2));
  for (const NodeId v : r.path) h = exp::mix64(h ^ v);
  return h;
}

std::uint64_t level_reads(const topo::Hypercube& cube,
                          const svc::ServeResult& r, NodeId d) {
  std::uint64_t reads = cube.dimension();
  for (std::size_t i = 1; i < r.path.size(); ++i) {
    const NodeId v = r.path[i];
    if (v == d) break;
    const unsigned left = bits::popcount(cube.navigation_vector(v, d));
    if (left >= 2) reads += left;
  }
  return reads;
}

std::uint64_t live_acquires(const svc::ServeResult& r) {
  const bool cut_hop = r.status == svc::ServeStatus::kDroppedNode ||
                       r.status == svc::ServeStatus::kDroppedLink;
  return 2 + r.hops() + (cut_hop ? 1 : 0);
}

bool outcome_valid(const topo::Hypercube& cube, const svc::ServeResult& r,
                   NodeId s, NodeId d) {
  if (!outcome_plausible(r, s, d) || r.path.empty() || r.path.front() != s) {
    return false;
  }
  for (std::size_t i = 1; i < r.path.size(); ++i) {
    if (bits::popcount(cube.navigation_vector(r.path[i - 1], r.path[i])) != 1) {
      return false;
    }
  }
  if (r.delivered()) return r.path.back() == d;
  if (r.status == svc::ServeStatus::kRefused) {
    return r.path.size() == 1 && !r.decision.feasible();
  }
  return true;
}

bool outcome_plausible(const svc::ServeResult& r, NodeId s, NodeId d) {
  const unsigned h = bits::popcount(s ^ d);
  switch (r.status) {
    case svc::ServeStatus::kDeliveredOptimal:
      return r.hops() == h;
    case svc::ServeStatus::kDeliveredSuboptimal:
      return r.hops() == h + 2;
    case svc::ServeStatus::kRefused:
      return true;
    case svc::ServeStatus::kStuck:
      return false;
    case svc::ServeStatus::kDroppedSource:
    case svc::ServeStatus::kDroppedNode:
    case svc::ServeStatus::kDroppedLink:
      return r.stale();
  }
  return false;
}

std::uint64_t snapshot_bytes(const svc::Snapshot& snap) {
  return snap.faults.words().size() * sizeof(std::uint64_t) +
         snap.links.cube().num_nodes() +
         snap.links.count() * sizeof(std::uint64_t) +
         snap.public_view.packed().storage_bytes() +
         snap.self_view.packed().storage_bytes();
}

bool matches_scratch(const svc::Snapshot& snap) {
  const core::EgsResult scratch =
      core::run_egs(snap.links.cube(), snap.faults, snap.links);
  return scratch.public_view == snap.public_view &&
         scratch.self_view == snap.self_view;
}

}  // namespace perfbench
