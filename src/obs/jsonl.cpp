#include "obs/jsonl.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>

namespace slcube::obs {

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          os << "\\u00" << kHex[(c >> 4) & 0xf] << kHex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

std::ostream& JsonWriter::key_(std::string_view key) {
  if (!first_) os_ << ',';
  first_ = false;
  write_json_string(os_, key);
  return os_ << ':';
}

const JsonValue* ParsedEvent::find(std::string_view key) const {
  const auto it = std::find_if(fields.begin(), fields.end(),
                               [key](const auto& f) { return f.first == key; });
  return it == fields.end() ? nullptr : &it->second;
}

bool ParsedEvent::has(std::string_view key) const {
  return find(key) != nullptr;
}

double ParsedEvent::num(std::string_view key, double fallback) const {
  const double* d = std::get_if<double>(find(key));
  return d != nullptr ? *d : fallback;
}

std::int64_t ParsedEvent::integer(std::string_view key,
                                  std::int64_t fallback) const {
  const double* d = std::get_if<double>(find(key));
  return d != nullptr ? static_cast<std::int64_t>(*d) : fallback;
}

bool ParsedEvent::boolean(std::string_view key, bool fallback) const {
  const bool* b = std::get_if<bool>(find(key));
  return b != nullptr ? *b : fallback;
}

std::string_view ParsedEvent::str(std::string_view key,
                                  std::string_view fallback) const {
  const std::string* s = std::get_if<std::string>(find(key));
  return s != nullptr ? std::string_view(*s) : fallback;
}

namespace {

/// Cursor over one line; every parse_* advances past what it consumed and
/// returns false on malformed input.
struct Cursor {
  std::string_view s;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < s.size() &&
           (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\r')) {
      ++pos;
    }
  }
  [[nodiscard]] bool eat(char c) {
    skip_ws();
    if (pos < s.size() && s[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  [[nodiscard]] bool peek(char c) {
    skip_ws();
    return pos < s.size() && s[pos] == c;
  }
};

bool parse_string(Cursor& c, std::string& out) {
  if (!c.eat('"')) return false;
  out.clear();
  while (c.pos < c.s.size()) {
    const char ch = c.s[c.pos++];
    if (ch == '"') return true;
    if (ch == '\\') {
      if (c.pos >= c.s.size()) return false;
      const char esc = c.s[c.pos++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'u': {  // the writer escapes only ASCII control bytes
          if (c.pos + 4 > c.s.size()) return false;
          const std::string hex(c.s.substr(c.pos, 4));
          char* end = nullptr;
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4 || code < 0 || code >= 0x80) return false;
          out += static_cast<char>(code);
          c.pos += 4;
          break;
        }
        default: return false;
      }
    } else {
      out += ch;
    }
  }
  return false;  // unterminated
}

bool parse_scalar(Cursor& c, JsonValue& out) {
  c.skip_ws();
  if (c.peek('"')) {
    std::string s;
    if (!parse_string(c, s)) return false;
    out = std::move(s);
    return true;
  }
  const std::string_view rest = c.s.substr(c.pos);
  if (rest.starts_with("true")) {
    c.pos += 4;
    out = true;
    return true;
  }
  if (rest.starts_with("false")) {
    c.pos += 5;
    out = false;
    return true;
  }
  if (rest.starts_with("null")) {
    c.pos += 4;
    out = nullptr;
    return true;
  }
  // Copy the numeric token out first: the view is not null-terminated.
  std::size_t end = c.pos;
  while (end < c.s.size() &&
         (std::isdigit(static_cast<unsigned char>(c.s[end])) != 0 ||
          c.s[end] == '-' || c.s[end] == '+' || c.s[end] == '.' ||
          c.s[end] == 'e' || c.s[end] == 'E')) {
    ++end;
  }
  if (end == c.pos) return false;
  const std::string token(c.s.substr(c.pos, end - c.pos));
  char* parsed_end = nullptr;
  const double d = std::strtod(token.c_str(), &parsed_end);
  if (parsed_end != token.c_str() + token.size()) return false;
  c.pos = end;
  out = d;
  return true;
}

bool parse_object(Cursor& c, const std::string& prefix, int depth,
                  ParsedEvent& out) {
  if (depth > 1) return false;  // one level of nesting is the whole dialect
  if (!c.eat('{')) return false;
  if (c.eat('}')) return true;
  for (;;) {
    std::string key;
    if (!parse_string(c, key)) return false;
    if (!c.eat(':')) return false;
    const std::string full =
        prefix.empty() ? std::move(key) : prefix + '.' + key;
    if (c.peek('{')) {
      if (!parse_object(c, full, depth + 1, out)) return false;
    } else {
      JsonValue v;
      if (!parse_scalar(c, v)) return false;
      out.fields.emplace_back(full, std::move(v));
    }
    if (c.eat('}')) return true;
    if (!c.eat(',')) return false;
  }
}

}  // namespace

std::optional<ParsedEvent> parse_jsonl_line(std::string_view line) {
  ParsedEvent ev;
  Cursor c{line};
  if (!parse_object(c, "", 0, ev)) return std::nullopt;
  c.skip_ws();
  if (c.pos != line.size()) return std::nullopt;  // trailing garbage
  return ev;
}

std::vector<ParsedEvent> read_jsonl_file(const std::string& path,
                                         std::size_t* malformed) {
  std::vector<ParsedEvent> out;
  if (malformed != nullptr) *malformed = 0;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (auto ev = parse_jsonl_line(line)) {
      out.push_back(std::move(*ev));
    } else if (malformed != nullptr) {
      ++*malformed;
    }
  }
  return out;
}

}  // namespace slcube::obs
