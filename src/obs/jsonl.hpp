// slcube::obs — the one flat-JSON dialect every obs emitter writes and a
// deliberately small reader for it. A line is one JSON object whose
// values are numbers, booleans, strings, null, or one level of nested
// object (read back flattened into dotted keys, e.g. "values.delivered").
// JsonWriter writes that dialect for trace events (trace.hpp), audit
// reports, metrics snapshots and telemetry records; write_json_string is
// the single escaping rule they share, the Chrome-trace exporter too.
// Not a general JSON library — arrays and deeper nesting are rejected.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace slcube::obs {

/// Quote and escape `s`: '"' and '\\' are backslash-escaped, '\n', '\t'
/// and '\r' use their short escapes, and any other control byte becomes
/// \u00XX. Everything else (UTF-8 included) is copied verbatim, so
/// parse_jsonl_line reads back exactly `s`.
void write_json_string(std::ostream& os, std::string_view s);

/// Comma-managed writer for one object: `{` on construction, `}` on
/// destruction. Numbers go through the stream unchanged (default
/// precision), so every emitter formats a value the same way.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) { os_ << '{'; }
  ~JsonWriter() { os_ << '}'; }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& field(std::string_view key, std::string_view v) {
    write_json_string(key_(key), v);
    return *this;
  }
  JsonWriter& field(std::string_view key, const char* v) {
    return field(key, std::string_view(v));
  }
  JsonWriter& field(std::string_view key, bool v) {
    key_(key) << (v ? "true" : "false");
    return *this;
  }
  template <typename T>
    requires std::is_arithmetic_v<T>
  JsonWriter& field(std::string_view key, T v) {
    key_(key) << v;
    return *this;
  }
  /// A nested object under `key`, filled by `fill(JsonWriter&)`.
  template <typename Fill>
  JsonWriter& object(std::string_view key, Fill&& fill) {
    key_(key);
    JsonWriter inner(os_);
    fill(inner);
    return *this;
  }

 private:
  std::ostream& key_(std::string_view key);

  std::ostream& os_;
  bool first_ = true;
};

using JsonValue = std::variant<std::nullptr_t, bool, double, std::string>;

/// One parsed line: flattened key -> value, in written order (a repeated
/// key reads as its first occurrence).
struct ParsedEvent {
  std::vector<std::pair<std::string, JsonValue>> fields;

  [[nodiscard]] bool has(std::string_view key) const;
  /// The "event" discriminator ("" when absent).
  [[nodiscard]] std::string_view kind() const { return str("event"); }
  [[nodiscard]] double num(std::string_view key, double fallback = 0.0) const;
  [[nodiscard]] std::int64_t integer(std::string_view key,
                                     std::int64_t fallback = 0) const;
  [[nodiscard]] bool boolean(std::string_view key,
                             bool fallback = false) const;
  [[nodiscard]] std::string_view str(std::string_view key,
                                     std::string_view fallback = "") const;

 private:
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

/// Parse one line; nullopt on malformed input.
[[nodiscard]] std::optional<ParsedEvent> parse_jsonl_line(
    std::string_view line);

/// Parse a whole file, skipping blank lines. `malformed` (optional)
/// receives the count of lines that failed to parse.
[[nodiscard]] std::vector<ParsedEvent> read_jsonl_file(
    const std::string& path, std::size_t* malformed = nullptr);

}  // namespace slcube::obs
