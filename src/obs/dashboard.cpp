#include "obs/dashboard.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

namespace slcube::obs {

namespace {

constexpr const char* kSparkLevels[] = {"▁", "▂", "▃",
                                        "▄", "▅", "▆",
                                        "▇", "█"};
constexpr const char* kHeatLevels[] = {" ", "░", "▒", "▓",
                                       "█"};
/// Max cells in a sparkline or heatmap row.
constexpr std::size_t kWidth = 60;

/// Downsample a series to at most kWidth cells (bucket means), then map
/// each cell onto the glyph ramp against the series maximum.
template <std::size_t N>
std::string ramp_row(const std::vector<double>& series, double max_value,
                     const char* const (&levels)[N]) {
  std::string out;
  if (series.empty()) return out;
  const std::size_t cells = std::min(kWidth, series.size());
  for (std::size_t c = 0; c < cells; ++c) {
    const std::size_t lo = c * series.size() / cells;
    const std::size_t hi = std::max(lo + 1, (c + 1) * series.size() / cells);
    double acc = 0.0;
    for (std::size_t i = lo; i < hi; ++i) acc += series[i];
    const double v = acc / static_cast<double>(hi - lo);
    std::size_t level = 0;
    if (max_value > 0.0 && v > 0.0) {
      level = static_cast<std::size_t>(std::ceil(v / max_value * (N - 1)));
      level = std::min(level, N - 1);
    }
    out += levels[level];
  }
  return out;
}

std::string sparkline(const std::vector<double>& series) {
  const double max_value =
      series.empty() ? 0.0 : *std::max_element(series.begin(), series.end());
  return ramp_row(series, max_value, kSparkLevels);
}

std::string fmt(double v) {
  char buf[32];
  if (v >= 1000.0 || v == std::floor(v)) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f", v);
  }
  return buf;
}

/// Pull one numeric field out of every ts_sample, in file order.
std::vector<double> series_of(const std::vector<const ParsedEvent*>& samples,
                              std::string_view key) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const ParsedEvent* s : samples) out.push_back(s->num(key));
  return out;
}

bool render_stages(std::ostream& os,
                   const std::vector<const ParsedEvent*>& stages) {
  if (stages.empty()) return false;
  double total = 0.0;
  for (const ParsedEvent* s : stages) {
    if (s->integer("depth") == 0) total += s->num("total_us");
  }
  os << "stages (total " << fmt(total / 1000.0) << " ms across "
     << stages.front()->integer("threads") << " thread arenas)\n";
  constexpr std::size_t kBarWidth = 30;
  for (const ParsedEvent* s : stages) {
    const auto depth = static_cast<std::size_t>(s->integer("depth"));
    const double total_us = s->num("total_us");
    const double share = total > 0.0 ? total_us / total : 0.0;
    const auto filled = static_cast<std::size_t>(
        std::lround(share * static_cast<double>(kBarWidth)));
    std::string bar;
    for (std::size_t i = 0; i < kBarWidth; ++i) {
      bar += i < filled ? "█" : "·";
    }
    char line[256];
    std::snprintf(line, sizeof(line), "  %-28s %s %6.1f%% %10.1f ms  x%lld\n",
                  (std::string(depth * 2, ' ') + std::string(s->str("name")))
                      .c_str(),
                  bar.c_str(), 100.0 * share, total_us / 1000.0,
                  static_cast<long long>(s->integer("count")));
    os << line;
  }
  os << '\n';
  return true;
}

bool render_throughput(std::ostream& os,
                       const std::vector<const ParsedEvent*>& samples) {
  const std::vector<double> d = series_of(samples, "d.exp.trials_run");
  const double peak =
      d.empty() ? 0.0 : *std::max_element(d.begin(), d.end());
  if (peak <= 0.0) return false;
  double total = 0.0;
  for (const double v : d) total += v;
  os << "throughput (trials per sample, " << samples.size() << " samples, "
     << fmt(total) << " trials total)\n";
  os << "  " << sparkline(d) << "  peak " << fmt(peak) << "\n\n";
  return true;
}

void render_histograms(std::ostream& os,
                       const std::vector<const ParsedEvent*>& samples) {
  if (samples.empty()) return;
  // Histogram base names: every "h.<name>.p50" key in the last sample,
  // listed by name whatever order the recorder wrote them in.
  std::vector<std::string> names;
  const ParsedEvent* last = samples.back();
  for (const auto& [key, value] : last->fields) {
    if (key.rfind("h.", 0) == 0 && key.size() > 6 &&
        key.compare(key.size() - 4, 4, ".p50") == 0) {
      names.push_back(key.substr(2, key.size() - 6));
    }
  }
  if (names.empty()) return;
  std::sort(names.begin(), names.end());
  os << "interval latency percentiles (last sample | p50 over time)\n";
  for (const std::string& name : names) {
    const std::string base = "h." + name + ".";
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  %-24s p50 %-8s p99 %-8s p999 %-8s max %-8s\n",
                  name.c_str(), fmt(last->num(base + "p50")).c_str(),
                  fmt(last->num(base + "p99")).c_str(),
                  fmt(last->num(base + "p999")).c_str(),
                  fmt(last->num(base + "max")).c_str());
    os << line;
    os << "    " << sparkline(series_of(samples, base + "p50")) << '\n';
  }
  os << '\n';
}

void render_heatmap(std::ostream& os,
                    const std::vector<const ParsedEvent*>& samples) {
  if (samples.empty()) return;
  // Dimension utilization: "d.hops.dim.<k>" counter deltas per sample.
  std::set<int> dims;
  for (const auto& [key, value] : samples.back()->fields) {
    if (key.rfind("d.hops.dim.", 0) == 0) {
      dims.insert(std::stoi(key.substr(11)));
    }
  }
  if (dims.empty()) return;
  double max_value = 0.0;
  std::map<int, std::vector<double>> rows;
  for (const int k : dims) {
    rows[k] = series_of(samples, "d.hops.dim." + std::to_string(k));
    for (const double v : rows[k]) max_value = std::max(max_value, v);
  }
  if (max_value <= 0.0) return;
  os << "dimension utilization (hops per sample, dark = busy)\n";
  for (const int k : dims) {
    char label[32];
    std::snprintf(label, sizeof(label), "  dim %2d ", k);
    os << label << ramp_row(rows[k], max_value, kHeatLevels) << '\n';
  }
  os << '\n';
}

}  // namespace

bool render_dashboard(std::ostream& os,
                      const std::vector<ParsedEvent>& events) {
  std::vector<const ParsedEvent*> samples;
  std::vector<const ParsedEvent*> stages;
  const ParsedEvent* meta = nullptr;
  for (const ParsedEvent& e : events) {
    if (e.kind() == "ts_sample") {
      samples.push_back(&e);
    } else if (e.kind() == "stage") {
      stages.push_back(&e);
    } else if (e.kind() == "telemetry_meta") {
      meta = &e;
    }
  }
  os << "== telemetry dashboard ==\n";
  if (meta != nullptr) {
    os << "run: dim=" << meta->integer("dim")
       << " threads=" << meta->integer("threads")
       << " ticks=" << meta->integer("ticks") << "\n";
  }
  os << '\n';
  const bool staged = render_stages(os, stages);
  const bool paced = render_throughput(os, samples);
  render_histograms(os, samples);
  render_heatmap(os, samples);
  if (samples.empty()) os << "(no ts_sample events in input)\n";
  return staged && paced;
}

}  // namespace slcube::obs
