// inspect — a command-line workbench for one faulty hypercube: pass a
// dimension, a comma-separated fault list (bit-string node labels), and
// optionally a source/destination pair. Prints the safety levels, safety
// vectors, safe-node classifications, component structure, and — when a
// pair is given — the full source decision and the routed path.
//
//   $ ./inspect 4 0011,0100,0110,1001            # the Fig. 1 machine
//   $ ./inspect 4 0011,0100,0110,1001 1110 0001  # + route a unicast
//   $ ./inspect 4 ... 1110 0001 --trace t.jsonl  # + write & replay trace
//   $ ./inspect --replay t.jsonl                 # narrate a saved trace
//   $ ./inspect --audit t.jsonl [--dim 4]        # invariant-check a trace
//   $ ./inspect --audit t.jsonl --json           # ... as one JSON object
//   $ ./inspect --dash telemetry.jsonl           # render a telemetry dash
//   $ ./inspect --timeline t.jsonl               # -> t.trace.json (Perfetto)
//   $ ./inspect --timeline t.jsonl -o out.json   # explicit output path
//
// Exit status: 0 success (a clean audit), 1 an input could not be read, a
// route endpoint is faulty or the audit found violations, 2 usage error.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "analysis/components.hpp"
#include "common/format.hpp"
#include "obs/audit.hpp"
#include "obs/dashboard.hpp"
#include "core/global_status.hpp"
#include "core/safe_node.hpp"
#include "core/safety_vector.hpp"
#include "core/unicast.hpp"
#include "obs/jsonl.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "topology/topology_view.hpp"

namespace {

using namespace slcube;

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// One narrative line per typed trace event.
struct Narrator {
  unsigned n;  ///< cube dimension; 0 when unknown (standalone --replay)

  /// Bit string when the dimension is known, decimal otherwise.
  std::string label(NodeId a) const {
    return n > 0 ? to_bits(a, n) : std::to_string(a);
  }
  void operator()(const obs::SourceDecisionEvent& e) const {
    std::printf("source %s -> %s: H=%u C1=%d C2=%d C3=%d",
                label(e.source).c_str(), label(e.dest).c_str(), e.hamming,
                e.c1, e.c2, e.c3);
    if (e.chosen_dim >= 0) {
      std::printf(" | launch on dim %d (%s", e.chosen_dim,
                  e.spare ? "spare detour" : "preferred");
      if (e.ties > 1) std::printf(", %u-way tie", e.ties);
      std::printf(")");
    } else {
      std::printf(" | no hop taken");
    }
    std::printf("\n");
  }
  void operator()(const obs::HopEvent& e) const {
    std::printf("  %s -(dim %u, level %u)-> %s  nav %u -> %u%s\n",
                label(e.from).c_str(), e.dim, e.level, label(e.to).c_str(),
                e.nav_before, e.nav_after,
                e.preferred ? "" : "  [spare detour]");
  }
  void operator()(const obs::RouteDoneEvent& e) const {
    std::printf("  => %s after %u hop(s)\n", e.status, e.hops);
  }
  void operator()(const obs::GsRoundEvent& e) const {
    std::printf("%s round %u: %llu level change(s), %llu message(s)\n",
                e.egs ? "egs" : "gs", e.round,
                static_cast<unsigned long long>(e.changed),
                static_cast<unsigned long long>(e.messages));
  }
  void operator()(const obs::MessageSendEvent& e) const {
    std::printf("t=%llu send %s -> %s (%s)\n",
                static_cast<unsigned long long>(e.time), label(e.from).c_str(),
                label(e.to).c_str(), obs::to_string(e.kind));
  }
  void operator()(const obs::MessageDropEvent& e) const {
    std::printf("t=%llu DROP %s -> %s (%s: %s)\n",
                static_cast<unsigned long long>(e.time), label(e.from).c_str(),
                label(e.to).c_str(), obs::to_string(e.kind), e.reason);
  }
  void operator()(const obs::NodeFailEvent& e) const {
    std::printf("t=%llu node %s failed\n",
                static_cast<unsigned long long>(e.time),
                label(e.node).c_str());
  }
  void operator()(const obs::NodeRecoverEvent& e) const {
    std::printf("t=%llu node %s recovered\n",
                static_cast<unsigned long long>(e.time),
                label(e.node).c_str());
  }
  void operator()(const obs::SweepPointEvent& e) const {
    std::printf("sweep %s: faults=%llu wall=%.1f ms util=%.2f "
                "trial p50/p90/p99=%.0f/%.0f/%.0f us\n",
                e.sweep, static_cast<unsigned long long>(e.fault_count),
                e.wall_ms, e.utilization, e.trial_p50_us, e.trial_p90_us,
                e.trial_p99_us);
  }
  void operator()(const auto& e) const {
    std::printf("(%s event)\n", e.kName);
  }
};

/// Render a JSONL trace as a hop-by-hop narrative.
int replay_trace(const std::string& path, unsigned n) {
  if (!std::ifstream(path).good()) {
    std::fprintf(stderr, "replay: cannot open %s\n", path.c_str());
    return 1;
  }
  std::size_t malformed = 0, unknown = 0;
  const auto events = obs::read_trace_file(path, &malformed, &unknown);
  std::printf("replay: %s — %zu event(s)", path.c_str(), events.size());
  if (malformed > 0) std::printf(", %zu malformed line(s)", malformed);
  if (unknown > 0) std::printf(", %zu unknown event kind(s)", unknown);
  std::printf("\n");
  if (events.empty()) return malformed > 0 ? 1 : 0;
  for (const obs::TraceEvent& ev : events) std::visit(Narrator{n}, ev);
  return 0;
}

/// Render a telemetry flight record (bench --telemetry output) as a
/// terminal dashboard: stage breakdown, throughput sparkline, interval
/// percentiles, per-dimension hop heatmap.
int dash_telemetry(const std::string& path) {
  if (!std::ifstream(path).good()) {
    std::fprintf(stderr, "dash: cannot open %s\n", path.c_str());
    return 1;
  }
  std::size_t malformed = 0;
  const auto events = obs::read_jsonl_file(path, &malformed);
  if (malformed > 0) {
    std::fprintf(stderr, "dash: %zu malformed line(s) in %s\n", malformed,
                 path.c_str());
  }
  const std::size_t samples = obs::render_dashboard(std::cout, events);
  if (samples == 0 && events.empty()) {
    std::fprintf(stderr, "dash: %s holds no telemetry events\n", path.c_str());
    return 1;
  }
  return 0;
}

/// Export a saved serving trace as a Chrome-trace / Perfetto timeline to
/// `out_path`, by default next to the input (foo.jsonl -> foo.trace.json).
int timeline_trace(const std::string& path, std::string out_path) {
  if (!std::ifstream(path).good()) {
    std::fprintf(stderr, "timeline: cannot open %s\n", path.c_str());
    return 1;
  }
  std::size_t malformed = 0;
  const auto events = obs::read_trace_file(path, &malformed);
  if (out_path.empty()) {
    out_path = path;
    const std::size_t dot = out_path.rfind(".jsonl");
    if (dot != std::string::npos && dot == out_path.size() - 6) {
      out_path.resize(dot);
    }
    out_path += ".trace.json";
  }
  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "timeline: cannot write %s\n", out_path.c_str());
    return 1;
  }
  const obs::TimelineStats stats = obs::write_chrome_trace(out, events);
  std::printf(
      "timeline: %s -> %s — %llu epoch slice(s), %llu promoted route(s), "
      "%llu breadcrumb tick(s)\n",
      path.c_str(), out_path.c_str(),
      static_cast<unsigned long long>(stats.epoch_slices),
      static_cast<unsigned long long>(stats.route_slices),
      static_cast<unsigned long long>(stats.breadcrumb_instants));
  if (malformed > 0) {
    std::printf("timeline: %zu malformed line(s)\n", malformed);
  }
  if (stats.epoch_slices + stats.route_slices + stats.breadcrumb_instants ==
      0) {
    std::fprintf(stderr, "timeline: nothing to plot in %s\n", path.c_str());
    return 1;
  }
  return 0;
}

/// Stream a saved trace through the audit engine and print the report:
/// text tables, or the one-line JSON object with --json. `dim` > 0 adds
/// the cube-width and GS round-bound checks. Exit 0 clean, 1 violations.
int audit_trace(const std::string& path, unsigned dim, bool json) {
  if (!std::ifstream(path).good()) {
    std::fprintf(stderr, "audit: cannot open %s\n", path.c_str());
    return 1;
  }
  obs::AuditConfig config;
  config.dimension = dim;
  std::size_t malformed = 0, unknown = 0;
  const auto report =
      obs::audit_jsonl_file(path, config, &malformed, &unknown);
  if (json) {
    report.write_json(std::cout);
    std::cout << '\n';
  } else {
    std::printf("audit: %s — %llu event(s)", path.c_str(),
                static_cast<unsigned long long>(report.events));
    if (malformed > 0) std::printf(", %zu malformed line(s)", malformed);
    if (unknown > 0) std::printf(", %zu unknown event kind(s)", unknown);
    std::printf("\n\n");
    report.render_text(std::cout);
  }
  return report.clean() ? 0 : 1;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <dimension> <faults: b1,b2,...|none> "
               "[<source bits> <dest bits>] [--trace FILE]\n"
               "       %s --replay FILE\n"
               "       %s --audit FILE [--dim N] [--json]\n"
               "       %s --dash FILE\n"
               "       %s --timeline FILE [-o OUT]\n",
               argv0, argv0, argv0, argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace slcube;

  // Pull the flag arguments out; what remains is positional.
  std::string trace_file, replay_file, audit_file, dash_file, timeline_file,
      out_file;
  unsigned audit_dim = 0;
  bool json = false;
  std::vector<char*> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg[0] != '-') {
      pos.push_back(argv[i]);
    } else if (i + 1 == argc) {
      return usage(argv[0]);
    } else if (arg == "--trace") {
      trace_file = argv[++i];
    } else if (arg == "--replay") {
      replay_file = argv[++i];
    } else if (arg == "--audit") {
      audit_file = argv[++i];
    } else if (arg == "--dim") {
      audit_dim = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (arg == "--dash") {
      dash_file = argv[++i];
    } else if (arg == "--timeline") {
      timeline_file = argv[++i];
    } else if (arg == "-o") {
      out_file = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (!timeline_file.empty() && pos.empty()) {
    return timeline_trace(timeline_file, out_file);
  }
  if (!dash_file.empty() && pos.empty()) {
    return dash_telemetry(dash_file);
  }
  if (!audit_file.empty() && pos.empty()) {
    return audit_trace(audit_file, audit_dim, json);
  }
  if (!replay_file.empty() && pos.empty()) {
    return replay_trace(replay_file, 0);
  }

  if (pos.size() != 2 && pos.size() != 4) return usage(argv[0]);
  const unsigned n = static_cast<unsigned>(std::atoi(pos[0]));
  if (n < 1 || n > 16) {
    std::fprintf(stderr, "dimension must be in 1..16\n");
    return 2;
  }
  const topo::Hypercube cube(n);
  fault::FaultSet faults(cube.num_nodes());
  if (std::string(pos[1]) != "none") {
    for (const auto& bits_str : split_commas(pos[1])) {
      if (bits_str.size() != n) {
        std::fprintf(stderr, "fault '%s' is not %u bits\n",
                     bits_str.c_str(), n);
        return 2;
      }
      faults.mark_faulty(from_bits(bits_str));
    }
  }

  const auto gs = core::run_gs(cube, faults);
  const auto vectors = core::compute_safety_vectors(cube, faults);
  const auto lh = core::compute_safe_nodes(cube, faults,
                                           core::SafeNodeRule::kLeeHayes);
  const auto wf = core::compute_safe_nodes(cube, faults,
                                           core::SafeNodeRule::kWuFernandez);
  const topo::HypercubeView view(cube);
  const auto comps = analysis::connected_components(view, faults);

  std::printf("Q%u | %llu faults | GS stable after %u round(s) | "
              "%zu healthy component(s)%s\n\n",
              n, static_cast<unsigned long long>(faults.count()),
              gs.rounds_to_stabilize, comps.count(),
              comps.disconnected() ? "  ** DISCONNECTED **" : "");

  if (n <= 8) {
    std::printf("%-*s %6s %-*s %8s %8s %10s\n", int(n) + 1, "node", "level",
                int(n) + 1, "vector", "LH-safe", "WF-safe", "component");
    for (NodeId a = 0; a < cube.num_nodes(); ++a) {
      std::string vec(n, '0');
      for (unsigned k = 1; k <= n; ++k) {
        if (faults.is_healthy(a) && vectors.bit(a, k)) vec[n - k] = '1';
      }
      std::printf("%-*s %6d %-*s %8s %8s %10s\n", int(n) + 1,
                  to_bits(a, n).c_str(), int{gs.levels[a]}, int(n) + 1,
                  vec.c_str(), faults.is_faulty(a) ? "-"
                  : lh.safe[a]                     ? "yes"
                                                   : "no",
                  faults.is_faulty(a) ? "-"
                  : wf.safe[a]        ? "yes"
                                      : "no",
                  faults.is_faulty(a)
                      ? "-"
                      : std::to_string(comps.component[a]).c_str());
    }
  } else {
    std::printf("(%llu nodes: per-node table suppressed; safe nodes: "
                "level-n %zu, WF %llu, LH %llu)\n",
                static_cast<unsigned long long>(cube.num_nodes()),
                gs.levels.safe_nodes().size(),
                static_cast<unsigned long long>(wf.safe_count()),
                static_cast<unsigned long long>(lh.safe_count()));
  }

  if (pos.size() == 4) {
    const NodeId s = from_bits(pos[2]), d = from_bits(pos[3]);
    if (faults.is_faulty(s) || faults.is_faulty(d)) {
      std::fprintf(stderr, "\nsource/destination must be healthy\n");
      return 1;
    }
    const auto dec = core::decide_at_source(cube, gs.levels, s, d);
    std::printf("\nunicast %s -> %s: H = %u | C1=%d C2=%d C3=%d\n",
                to_bits(s, n).c_str(), to_bits(d, n).c_str(), dec.hamming,
                dec.c1, dec.c2, dec.c3);
    core::UnicastOptions uo;
    std::unique_ptr<obs::JsonlSink> sink;
    if (!trace_file.empty()) {
      sink = std::make_unique<obs::JsonlSink>(trace_file);
      uo.trace = sink.get();
    }
    const auto r = core::route_unicast(cube, faults, gs.levels, s, d, uo);
    std::printf("levels : %s — %s\n", core::to_string(r.status),
                analysis::format_path(r.path, n).c_str());
    const auto rv = core::route_unicast_sv(cube, faults, vectors, s, d);
    std::printf("vectors: %s — %s\n", core::to_string(rv.status),
                analysis::format_path(rv.path, n).c_str());
    if (sink != nullptr) {
      sink.reset();  // flush before reading the file back
      std::printf("\n");
      return replay_trace(trace_file, n);
    }
  } else if (!replay_file.empty()) {
    std::printf("\n");
    return replay_trace(replay_file, n);
  }
  return 0;
}
