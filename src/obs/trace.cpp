#include "obs/trace.hpp"

#include <fstream>
#include <ostream>
#include <set>
#include <type_traits>
#include <utility>

#include "common/contracts.hpp"
#include "obs/jsonl.hpp"

namespace slcube::obs {

const char* to_string(MsgKind k) {
  switch (k) {
    case MsgKind::kLevelUpdate:
      return "level_update";
    case MsgKind::kUnicast:
      return "unicast";
  }
  SLC_UNREACHABLE("bad MsgKind");
}

namespace {

/// Process-lifetime string pool backing the const char* fields of
/// reconstructed events (producers point them at string literals).
const char* intern(std::string_view s) {
  static std::mutex mutex;
  static std::set<std::string, std::less<>> pool;
  const std::scoped_lock lock(mutex);
  auto it = pool.find(s);
  if (it == pool.end()) it = pool.emplace(s).first;
  return it->c_str();
}

using Values = std::vector<std::pair<std::string, double>>;

void put(JsonWriter& w, const char* key, const auto& v) {
  using T = std::decay_t<decltype(v)>;
  if constexpr (std::is_same_v<T, MsgKind>) {
    w.field(key, to_string(v));
  } else if constexpr (std::is_same_v<T, Values>) {
    w.object(key, [&v](JsonWriter& o) {
      for (const auto& [name, value] : v) o.field(name, value);
    });
  } else {
    w.field(key, v);
  }
}

/// Overwrite `v` from `p[key]` when the key is there with the right type;
/// otherwise `v` keeps its default.
void get(const ParsedEvent& p, const char* key, auto& v) {
  using T = std::decay_t<decltype(v)>;
  if constexpr (std::is_same_v<T, MsgKind>) {
    v = p.str(key, to_string(v)) == to_string(MsgKind::kUnicast)
            ? MsgKind::kUnicast
            : MsgKind::kLevelUpdate;
  } else if constexpr (std::is_same_v<T, Values>) {
    const std::string prefix = std::string(key) + '.';
    for (const auto& [name, value] : p.fields) {
      const double* d = std::get_if<double>(&value);
      if (name.size() > prefix.size() && name.starts_with(prefix)) {
        v.emplace_back(name.substr(prefix.size()), d != nullptr ? *d : 0.0);
      }
    }
  } else if constexpr (std::is_same_v<T, const char*>) {
    v = intern(p.str(key, v));
  } else if constexpr (std::is_same_v<T, bool>) {
    v = p.boolean(key, v);
  } else if constexpr (std::is_floating_point_v<T>) {
    v = p.num(key, v);
  } else {
    v = static_cast<T>(p.integer(key, static_cast<std::int64_t>(v)));
  }
}

template <typename E>
bool read_as(const ParsedEvent& p, TraceEvent& out) {
  if (p.kind() != E::kName) return false;
  E e;
  E::fields(e, [&p](const char* key, auto& v) { get(p, key, v); });
  out = std::move(e);
  return true;
}

}  // namespace

const char* event_name(const TraceEvent& ev) {
  return std::visit([](const auto& e) { return e.kName; }, ev);
}

void write_json(std::ostream& os, const TraceEvent& ev) {
  std::visit(
      [&os](const auto& e) {
        JsonWriter w(os);
        w.field("event", e.kName);
        e.fields(e, [&w](const char* key, const auto& v) { put(w, key, v); });
      },
      ev);
}

bool to_trace_event(const ParsedEvent& parsed, TraceEvent& out) {
  return [&]<std::size_t... I>(std::index_sequence<I...>) {
    return (read_as<std::variant_alternative_t<I, TraceEvent>>(parsed, out) ||
            ...);
  }(std::make_index_sequence<std::variant_size_v<TraceEvent>>{});
}

std::vector<TraceEvent> read_trace_file(const std::string& path,
                                        std::size_t* malformed,
                                        std::size_t* unknown) {
  if (unknown != nullptr) *unknown = 0;
  std::vector<TraceEvent> out;
  for (const ParsedEvent& parsed : read_jsonl_file(path, malformed)) {
    TraceEvent ev;
    if (to_trace_event(parsed, ev)) {
      out.push_back(std::move(ev));
    } else if (unknown != nullptr) {
      ++*unknown;
    }
  }
  return out;
}

// --- RingBufferSink --------------------------------------------------------

RingBufferSink::RingBufferSink(std::size_t capacity) : capacity_(capacity) {
  SLC_EXPECT(capacity_ > 0);
  ring_.reserve(capacity_);
}

void RingBufferSink::on_event(const TraceEvent& ev) {
  const std::scoped_lock lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(ev);
  } else {
    ring_[seen_ % capacity_] = ev;
    ++dropped_;
  }
  ++seen_;
}

std::uint64_t RingBufferSink::dropped() const {
  const std::scoped_lock lock(mutex_);
  return dropped_;
}

std::size_t RingBufferSink::size() const {
  const std::scoped_lock lock(mutex_);
  return ring_.size();
}

std::uint64_t RingBufferSink::total_seen() const {
  const std::scoped_lock lock(mutex_);
  return seen_;
}

std::vector<TraceEvent> RingBufferSink::snapshot() const {
  const std::scoped_lock lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (seen_ <= capacity_) {
    out = ring_;
  } else {
    const std::size_t head = seen_ % capacity_;  // oldest retained event
    for (std::size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(head + i) % capacity_]);
    }
  }
  return out;
}

void RingBufferSink::clear() {
  const std::scoped_lock lock(mutex_);
  ring_.clear();
  seen_ = 0;
  dropped_ = 0;
}

// --- JsonlSink -------------------------------------------------------------

JsonlSink::JsonlSink(std::ostream& os) : os_(&os) {}

JsonlSink::JsonlSink(const std::string& path)
    : owned_(std::make_unique<std::ofstream>(path, std::ios::trunc)),
      os_(owned_.get()) {
  SLC_EXPECT_MSG(static_cast<std::ofstream&>(*owned_).is_open(),
                 "cannot open JSONL trace file");
}

JsonlSink::~JsonlSink() { os_->flush(); }

void JsonlSink::on_event(const TraceEvent& ev) {
  const std::scoped_lock lock(mutex_);
  write_json(*os_, ev);
  *os_ << '\n';
}

}  // namespace slcube::obs
