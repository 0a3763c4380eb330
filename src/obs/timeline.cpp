#include "obs/timeline.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>

#include "obs/jsonl.hpp"

namespace slcube::obs {

namespace {

constexpr int kPid = 1;
constexpr int kTidEpochs = 1;
constexpr int kTidRoutes = 2;
constexpr int kTidBreadcrumbs = 3;

/// Comma-managed emitter for one trace event object inside the
/// traceEvents array.
class Event {
 public:
  Event(std::ostream& os, bool& first, const char* phase, int tid) : os_(os) {
    if (!first) os_ << ",\n";
    first = false;
    os_ << "{\"ph\":\"" << phase << "\",\"pid\":" << kPid
        << ",\"tid\":" << tid;
  }
  ~Event() {
    if (in_args_) os_ << '}';
    os_ << '}';
  }

  Event& name(std::string_view v) {
    os_ << ",\"name\":";
    write_json_string(os_, v);
    return *this;
  }
  // The time axis is route ids and request indices: integers, written
  // exactly (a six-digit float format merges ticks from 10^6 up).
  Event& ts(std::uint64_t v) {
    os_ << ",\"ts\":" << v;
    return *this;
  }
  Event& dur(std::uint64_t v) {
    os_ << ",\"dur\":" << v;
    return *this;
  }
  Event& scope_thread() {  // instant scope: thread-local tick
    os_ << ",\"s\":\"t\"";
    return *this;
  }
  /// Integral args are written exactly, floating ones at the stream's
  /// default precision.
  template <typename T>
    requires std::is_arithmetic_v<T>
  Event& arg(const char* key, T v) {
    open_args();
    os_ << '"' << key << "\":" << v;
    return *this;
  }
  Event& arg(const char* key, std::string_view v) {
    open_args();
    os_ << '"' << key << "\":";
    write_json_string(os_, v);
    return *this;
  }

 private:
  void open_args() {
    if (!in_args_) {
      os_ << ",\"args\":{";
      in_args_ = true;
    } else {
      os_ << ',';
    }
  }
  std::ostream& os_;
  bool in_args_ = false;
};

void write_thread_name(std::ostream& os, bool& first, int tid,
                       const char* label) {
  Event ev(os, first, "M", tid);
  ev.name("thread_name").arg("name", std::string_view(label));
}

}  // namespace

TimelineStats write_chrome_trace(std::ostream& os,
                                 const std::vector<TraceEvent>& events,
                                 const TimelineOptions& options) {
  TimelineStats stats;

  // Pass 1: collect the epoch lineage so slices can span to their
  // successor and routes can name the churn that produced their epoch.
  std::map<std::uint64_t, EpochPublishEvent> epochs;
  std::uint64_t max_ts = 0;
  for (const TraceEvent& ev : events) {
    if (const auto* e = std::get_if<EpochPublishEvent>(&ev)) {
      epochs[e->epoch] = *e;
      max_ts = std::max(max_ts, e->ts);
    } else if (const auto* r = std::get_if<RouteSummaryEvent>(&ev)) {
      max_ts = std::max(max_ts, r->route_id + r->hops + 1);
    }
  }

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;

  {
    Event ev(os, first, "M", kTidEpochs);
    ev.name("process_name").arg("name", std::string_view(options.process_name));
  }
  write_thread_name(os, first, kTidEpochs, "epochs");
  write_thread_name(os, first, kTidRoutes, "routes (promoted)");
  if (options.include_breadcrumbs) {
    write_thread_name(os, first, kTidBreadcrumbs, "routes (breadcrumb)");
  }

  // Epoch slices: each spans to the next epoch's activation (the last
  // one extends to the end of the observed axis).
  for (auto it = epochs.begin(); it != epochs.end(); ++it) {
    const auto next = std::next(it);
    const EpochPublishEvent& e = it->second;
    const std::uint64_t end =
        next != epochs.end() ? next->second.ts : max_ts + 1;
    {
      Event ev(os, first, "X", kTidEpochs);
      ev.name("epoch " + std::to_string(e.epoch))
          .ts(e.ts)
          .dur(end > e.ts ? end - e.ts : 1)
          .arg("epoch", e.epoch)
          .arg("parent", e.parent)
          .arg("cause", e.cause)
          .arg("churn", e.churn)
          .arg("faults", e.faults)
          .arg("links", e.links);
      if (e.node >= 0) ev.arg("node", e.node);
      if (e.dim >= 0) ev.arg("dim", e.dim);
    }
    ++stats.epoch_slices;
    if (e.churn > 0) {
      Event ev(os, first, "i", kTidEpochs);
      ev.name(std::string("churn: ") + e.cause)
          .ts(e.ts)
          .scope_thread()
          .arg("records", e.churn);
      ++stats.churn_instants;
    }
  }

  // Route slices and breadcrumb instants.
  for (const TraceEvent& ev : events) {
    const auto* r = std::get_if<RouteSummaryEvent>(&ev);
    if (r == nullptr) {
      if (!std::holds_alternative<EpochPublishEvent>(ev)) {
        ++stats.events_skipped;
      }
      continue;
    }
    if (!r->promoted && !options.include_breadcrumbs) continue;

    Event out(os, first, r->promoted ? "X" : "i",
              r->promoted ? kTidRoutes : kTidBreadcrumbs);
    out.name("route " + std::to_string(r->route_id) + " (" + r->status + ")");
    out.ts(r->route_id);
    if (r->promoted) {
      out.dur(std::max(r->hops, 1u));
    } else {
      out.scope_thread();
    }
    out.arg("decision_epoch", r->decision_epoch)
        .arg("ground_epoch", r->ground_epoch)
        .arg("status", r->status)
        .arg("reason", r->reason)
        .arg("hops", r->hops)
        .arg("stale", r->ground_epoch > r->decision_epoch ? 1 : 0);
    if (r->latency_us >= 0) out.arg("latency_us", r->latency_us);
    const auto it = epochs.find(r->decision_epoch);
    if (it != epochs.end()) out.arg("decision_churn", it->second.cause);
    if (r->promoted) {
      ++stats.route_slices;
    } else {
      ++stats.breadcrumb_instants;
    }
  }

  os << "\n]}\n";
  return stats;
}

}  // namespace slcube::obs
