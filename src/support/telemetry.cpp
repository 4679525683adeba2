#include "support/telemetry.h"

#include <cctype>
#include <cmath>
#include <cstring>

#include "support/common.h"
#include "support/numeric.h"

namespace perfdojo {

// --- JsonValue ---

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

double JsonValue::numberOr(const std::string& key, double def) const {
  const JsonValue* v = find(key);
  return v && v->kind == Kind::Number ? v->num : def;
}

std::string JsonValue::stringOr(const std::string& key,
                                const std::string& def) const {
  const JsonValue* v = find(key);
  return v && v->kind == Kind::String ? v->str : def;
}

bool JsonValue::boolOr(const std::string& key, bool def) const {
  const JsonValue* v = find(key);
  return v && v->kind == Kind::Bool ? v->b : def;
}

// --- Parser (recursive descent over the emitted subset of JSON) ---

namespace {

struct Parser {
  std::string_view s;
  std::size_t i = 0;
  std::string err;

  bool fail(const std::string& msg) {
    if (err.empty())
      err = msg + " at offset " + std::to_string(i);
    return false;
  }

  void skipWs() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }

  bool consume(char c) {
    skipWs();
    if (i >= s.size() || s[i] != c)
      return fail(std::string("expected '") + c + "'");
    ++i;
    return true;
  }

  bool literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (s.compare(i, n, lit) != 0) return fail("bad literal");
    i += n;
    return true;
  }

  bool parseString(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (i < s.size()) {
      const char c = s[i];
      if (c == '"') {
        ++i;
        return true;
      }
      if (c == '\\') {
        if (i + 1 >= s.size()) return fail("truncated escape");
        const char e = s[i + 1];
        i += 2;
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (i + 4 > s.size()) return fail("truncated \\u escape");
            unsigned cp = 0;
            for (int k = 0; k < 4; ++k) {
              const char h = s[i + static_cast<std::size_t>(k)];
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            i += 4;
            // BMP-only UTF-8 encoding (the emitter never produces surrogates).
            if (cp < 0x80) {
              out += static_cast<char>(cp);
            } else if (cp < 0x800) {
              out += static_cast<char>(0xC0 | (cp >> 6));
              out += static_cast<char>(0x80 | (cp & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (cp >> 12));
              out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (cp & 0x3F));
            }
            break;
          }
          default: return fail("unknown escape");
        }
        continue;
      }
      // Copy the run up to the next quote or backslash in one append.
      std::size_t end = i + 1;
      while (end < s.size() && s[end] != '"' && s[end] != '\\') ++end;
      out.append(s.data() + i, end - i);
      i = end;
    }
    return fail("unterminated string");
  }

  bool parseValue(JsonValue& out) {
    skipWs();
    if (i >= s.size()) return fail("unexpected end of input");
    const char c = s[i];
    if (c == '{') {
      ++i;
      out.kind = JsonValue::Kind::Object;
      skipWs();
      if (i < s.size() && s[i] == '}') {
        ++i;
        return true;
      }
      while (true) {
        std::string key;
        if (!parseString(key)) return false;
        if (!consume(':')) return false;
        JsonValue v;
        if (!parseValue(v)) return false;
        out.object.emplace_back(std::move(key), std::move(v));
        skipWs();
        if (i < s.size() && s[i] == ',') {
          ++i;
          skipWs();
          continue;
        }
        return consume('}');
      }
    }
    if (c == '[') {
      ++i;
      out.kind = JsonValue::Kind::Array;
      skipWs();
      if (i < s.size() && s[i] == ']') {
        ++i;
        return true;
      }
      while (true) {
        JsonValue v;
        if (!parseValue(v)) return false;
        out.array.push_back(std::move(v));
        skipWs();
        if (i < s.size() && s[i] == ',') {
          ++i;
          continue;
        }
        return consume(']');
      }
    }
    if (c == '"') {
      out.kind = JsonValue::Kind::String;
      return parseString(out.str);
    }
    if (c == 't') {
      out.kind = JsonValue::Kind::Bool;
      out.b = true;
      return literal("true");
    }
    if (c == 'f') {
      out.kind = JsonValue::Kind::Bool;
      out.b = false;
      return literal("false");
    }
    if (c == 'n') {
      out.kind = JsonValue::Kind::Null;
      return literal("null");
    }
    // Number — parsed locale-free: std::strtod honors LC_NUMERIC, and a
    // comma-decimal host locale must not break trace/wire round-trips.
    double v = 0;
    const std::size_t used =
        parseDoublePrefix(s.data() + i, s.data() + s.size(), v);
    if (used == 0) return fail("expected a JSON value");
    out.kind = JsonValue::Kind::Number;
    out.num = v;
    i += used;
    return true;
  }
};

}  // namespace

bool parseJson(std::string_view text, JsonValue& out, std::string* error) {
  Parser p{text, 0, {}};
  out = JsonValue{};
  if (!p.parseValue(out)) {
    if (error) *error = p.err;
    return false;
  }
  p.skipWs();
  if (p.i != text.size()) {
    if (error) *error = "trailing garbage at offset " + std::to_string(p.i);
    return false;
  }
  return true;
}

// --- Escaping and Event ---

namespace {

/// Appends `s` escaped for embedding between JSON quotes: each run of bytes
/// that need no escape is copied with one append.
void appendEscaped(std::string& out, std::string_view s) {
  std::size_t run = 0;  // start of the pending plain run
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
        out += buf;
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
}

/// Appends `,"<key>":`, the start of an event member.
void appendMember(std::string& out, std::string_view key) {
  out += ",\"";
  appendEscaped(out, key);
  out += "\":";
}

void appendNumber(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  // Locale-free shortest round-trip: snprintf("%.17g") would emit a comma
  // decimal point under e.g. LC_NUMERIC=de_DE — invalid JSON.
  out += formatDouble(v);
}

}  // namespace

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  appendEscaped(out, s);
  return out;
}

Event::Event(std::string_view type) {
  body_ = "{\"type\":\"";
  appendEscaped(body_, type);
  body_ += '"';
}

Event& Event::num(std::string_view key, double v) {
  appendMember(body_, key);
  appendNumber(body_, v);
  return *this;
}

Event& Event::integer(std::string_view key, std::int64_t v) {
  appendMember(body_, key);
  body_ += std::to_string(v);
  return *this;
}

Event& Event::str(std::string_view key, std::string_view v) {
  appendMember(body_, key);
  body_ += '"';
  appendEscaped(body_, v);
  body_ += '"';
  return *this;
}

Event& Event::boolean(std::string_view key, bool v) {
  appendMember(body_, key);
  body_ += v ? "true" : "false";
  return *this;
}

Event& Event::numbers(std::string_view key,
                      const std::map<std::string, double>& kv) {
  appendMember(body_, key);
  body_ += '{';
  bool first = true;
  for (const auto& [k, v] : kv) {
    if (!first) body_ += ',';
    first = false;
    body_ += '"';
    appendEscaped(body_, k);
    body_ += "\":";
    appendNumber(body_, v);
  }
  body_ += '}';
  return *this;
}

std::string Event::json() const { return body_ + "}"; }

// --- Telemetry ---

Telemetry::Telemetry() = default;

Telemetry::Telemetry(std::FILE* f) : file_(f) {}

std::unique_ptr<Telemetry> Telemetry::toFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  require(f != nullptr, "telemetry: cannot open '" + path + "' for writing");
  return std::unique_ptr<Telemetry>(new Telemetry(f));
}

Telemetry::~Telemetry() {
  if (file_) std::fclose(file_);
}

void Telemetry::emit(const Event& e) {
  const std::string line = e.json();
  std::lock_guard<std::mutex> lk(mu_);
  ++events_;
  if (file_) {
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fputc('\n', file_);
  } else {
    buffer_ += line;
    buffer_ += '\n';
  }
}

std::int64_t Telemetry::events() const {
  std::lock_guard<std::mutex> lk(mu_);
  return events_;
}

std::string Telemetry::buffered() const {
  std::lock_guard<std::mutex> lk(mu_);
  return buffer_;
}

void Telemetry::flush() {
  std::lock_guard<std::mutex> lk(mu_);
  if (file_) std::fflush(file_);
}

}  // namespace perfdojo
