#include "obs/report.hpp"

#include <algorithm>
#include <ostream>
#include <string>
#include <type_traits>

#include "common/contracts.hpp"
#include "common/table.hpp"
#include "obs/jsonl.hpp"

namespace slcube::obs {

const char* to_string(ViolationKind k) {
  switch (k) {
    case ViolationKind::kHopCountMismatch:
      return "hop-count-mismatch";
    case ViolationKind::kNavBitNotToggled:
      return "nav-bit-not-toggled";
    case ViolationKind::kBrokenChain:
      return "broken-chain";
    case ViolationKind::kFlagsInconsistent:
      return "flags-inconsistent";
    case ViolationKind::kSpareMisuse:
      return "spare-misuse";
    case ViolationKind::kHopLevelTooLow:
      return "hop-level-too-low";
    case ViolationKind::kStuckRoute:
      return "stuck-route";
    case ViolationKind::kGsRoundOrder:
      return "gs-round-order";
    case ViolationKind::kGsBoundExceeded:
      return "gs-bound-exceeded";
    case ViolationKind::kDropWithoutSend:
      return "drop-without-send";
    case ViolationKind::kTruncatedRoute:
      return "truncated-route";
    case ViolationKind::kMisrouteUnattributed:
      return "misroute-unattributed";
    case ViolationKind::kSummaryMismatch:
      return "summary-mismatch";
  }
  SLC_UNREACHABLE("bad ViolationKind");
}

std::vector<double> hop_count_bounds() {
  std::vector<double> bounds(33);
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    bounds[i] = static_cast<double>(i);
  }
  return bounds;
}

std::vector<double> sweep_wall_bounds() {
  return exponential_bounds(0.01, 2.0, 24);  // 0.01 ms .. ~84 s
}

AuditReport::AuditReport()
    : hops_per_route(hop_count_bounds()), sweep_wall_ms(sweep_wall_bounds()) {}

namespace {

void print_hist_row(Table& t, const char* name, const HistogramData& h) {
  t.row() << std::string(name) << static_cast<std::int64_t>(h.count)
          << h.mean() << h.quantile(0.5) << h.quantile(0.9)
          << h.quantile(0.99);
}

}  // namespace

void AuditReport::render_text(std::ostream& os) const {
  {
    Table t("AUDIT SUMMARY", {"metric", "value"});
    t.row() << "events" << static_cast<std::int64_t>(events);
    t.row() << "routes" << static_cast<std::int64_t>(routes);
    t.row() << "hops" << static_cast<std::int64_t>(hops);
    t.row() << "spare hops" << static_cast<std::int64_t>(spare_hops);
    t.row() << "gs waves" << static_cast<std::int64_t>(gs_waves);
    t.row() << "gs max round" << static_cast<std::int64_t>(gs_max_round);
    t.row() << "misroutes" << static_cast<std::int64_t>(misroutes);
    t.row() << "sends" << static_cast<std::int64_t>(sends);
    t.row() << "drops" << static_cast<std::int64_t>(drops);
    t.row() << "sweep points" << static_cast<std::int64_t>(sweep_points);
    if (promoted_routes != 0 || breadcrumb_routes != 0) {
      t.row() << "promoted routes" << static_cast<std::int64_t>(promoted_routes);
      t.row() << "breadcrumb routes"
              << static_cast<std::int64_t>(breadcrumb_routes);
    }
    if (epochs_published != 0) {
      t.row() << "epochs published"
              << static_cast<std::int64_t>(epochs_published);
    }
    if (events_lost != 0) {
      t.row() << "events lost (truncation)"
              << static_cast<std::int64_t>(events_lost);
    }
    t.row() << "VIOLATIONS" << static_cast<std::int64_t>(violations_total);
    t.print(os);
  }

  if (!routes_by_status.empty()) {
    Table t("ROUTES BY STATUS", {"status", "routes"});
    for (const auto& [status, n] : routes_by_status) {
      t.row() << status << static_cast<std::int64_t>(n);
    }
    t.print(os);
  }

  {
    Table t("VIOLATIONS", {"kind", "count"});
    for (std::size_t i = 0; i < kNumViolationKinds; ++i) {
      if (violations_by_kind[i] == 0) continue;
      t.row() << to_string(static_cast<ViolationKind>(i))
              << static_cast<std::int64_t>(violations_by_kind[i]);
    }
    if (t.num_rows() == 0) t.row() << "(none)" << std::int64_t{0};
    t.print(os);
    for (const auto& v : details) {
      os << "  [" << to_string(v.kind) << "] " << v.detail << '\n';
    }
    if (!details.empty()) os << '\n';
  }

  if (!preferred_by_dim.empty() || !spare_by_dim.empty()) {
    Table t("HOP HEATMAP", {"dim", "preferred", "spare"});
    std::map<unsigned, std::pair<std::uint64_t, std::uint64_t>> by_dim;
    for (const auto& [d, n] : preferred_by_dim) by_dim[d].first = n;
    for (const auto& [d, n] : spare_by_dim) by_dim[d].second = n;
    for (const auto& [d, n] : by_dim) {
      t.row() << static_cast<std::int64_t>(d)
              << static_cast<std::int64_t>(n.first)
              << static_cast<std::int64_t>(n.second);
    }
    t.print(os);
  }

  if (!spare_by_hamming.empty()) {
    Table t("SPARE DETOURS BY DISTANCE", {"H", "spares"});
    for (const auto& [h, n] : spare_by_hamming) {
      t.row() << static_cast<std::int64_t>(h) << static_cast<std::int64_t>(n);
    }
    t.print(os);
  }

  if (!gs_curve.empty()) {
    Table t("GS CONVERGENCE", {"round", "waves", "mean changed"});
    for (const auto& [round, acc] : gs_curve) {
      const double mean =
          acc.second != 0 ? static_cast<double>(acc.first) /
                                static_cast<double>(acc.second)
                          : 0.0;
      t.row() << static_cast<std::int64_t>(round)
              << static_cast<std::int64_t>(acc.second) << mean;
    }
    t.print(os);
  }

  if (!misroutes_by_class.empty()) {
    Table t("MISROUTE ATTRIBUTION", {"class", "routes"});
    for (const auto& [cls, n] : misroutes_by_class) {
      t.row() << cls << static_cast<std::int64_t>(n);
    }
    t.print(os);
  }

  if (!drops_by_reason.empty()) {
    Table t("DROP FORENSICS", {"reason", "drops"});
    for (const auto& [reason, n] : drops_by_reason) {
      t.row() << reason << static_cast<std::int64_t>(n);
    }
    t.print(os);
  }

  if (!promoted_by_reason.empty()) {
    Table t("PROMOTED ROUTES BY REASON", {"reason", "routes"});
    for (const auto& [reason, n] : promoted_by_reason) {
      t.row() << reason << static_cast<std::int64_t>(n);
    }
    t.print(os);
  }

  if (hops_per_route.count != 0 || sweep_wall_ms.count != 0) {
    Table t("DISTRIBUTIONS", {"series", "count", "mean", "p50", "p90", "p99"});
    if (hops_per_route.count != 0) {
      print_hist_row(t, "hops/route", hops_per_route);
    }
    if (sweep_wall_ms.count != 0) {
      print_hist_row(t, "sweep wall ms", sweep_wall_ms);
    }
    t.print(os);
  }
}

void AuditReport::write_json(std::ostream& os) const {
  JsonWriter top(os);
  top.field("event", "audit_report")
      .field("events", events)
      .field("routes", routes)
      .field("hops", hops)
      .field("spare_hops", spare_hops)
      .field("violations_total", violations_total);
  const auto counts = [&top](const char* name, const auto& by_key) {
    top.object(name, [&by_key](JsonWriter& o) {
      for (const auto& [k, n] : by_key) {
        if constexpr (std::is_integral_v<std::decay_t<decltype(k)>>) {
          o.field(std::to_string(k), n);
        } else {
          o.field(k, n);
        }
      }
    });
  };
  top.object("violations", [this](JsonWriter& o) {
    for (std::size_t i = 0; i < kNumViolationKinds; ++i) {
      o.field(to_string(static_cast<ViolationKind>(i)), violations_by_kind[i]);
    }
  });
  counts("status", routes_by_status);
  counts("preferred_by_dim", preferred_by_dim);
  counts("spare_by_dim", spare_by_dim);
  counts("spare_by_h", spare_by_hamming);
  top.field("gs_waves", gs_waves).field("gs_max_round", gs_max_round);
  top.object("gs_changed", [this](JsonWriter& o) {
    for (const auto& [round, acc] : gs_curve) {
      o.field(std::to_string(round), acc.first);
    }
  });
  top.object("gs_waves_at", [this](JsonWriter& o) {
    for (const auto& [round, acc] : gs_curve) {
      o.field(std::to_string(round), acc.second);
    }
  });
  top.field("misroutes", misroutes);
  counts("misroutes_by_class", misroutes_by_class);
  top.field("sends", sends).field("drops", drops);
  counts("drops_by_reason", drops_by_reason);
  top.field("promoted_routes", promoted_routes)
      .field("breadcrumb_routes", breadcrumb_routes);
  counts("promoted_by_reason", promoted_by_reason);
  top.field("epochs_published", epochs_published)
      .field("events_lost", events_lost);
  const auto hist = [&top](const char* name, const HistogramData& h) {
    top.object(name, [&h](JsonWriter& o) {
      o.field("count", h.count)
          .field("mean", h.mean())
          .field("p50", h.quantile(0.5))
          .field("p90", h.quantile(0.9))
          .field("p99", h.quantile(0.99));
    });
  };
  hist("hops_hist", hops_per_route);
  top.field("sweep_points", sweep_points);
  hist("sweep_wall_ms", sweep_wall_ms);
}

}  // namespace slcube::obs
