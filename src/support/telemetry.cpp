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
      out += c;
      ++i;
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

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// --- Event ---

namespace {

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

Event::Event(const std::string& type) {
  body_ = "{\"type\":\"" + jsonEscape(type) + "\"";
}

Event& Event::num(const std::string& key, double v) {
  body_ += ",\"" + jsonEscape(key) + "\":";
  appendNumber(body_, v);
  return *this;
}

Event& Event::integer(const std::string& key, std::int64_t v) {
  body_ += ",\"" + jsonEscape(key) + "\":" + std::to_string(v);
  return *this;
}

Event& Event::str(const std::string& key, const std::string& v) {
  body_ += ",\"" + jsonEscape(key) + "\":\"" + jsonEscape(v) + "\"";
  return *this;
}

Event& Event::boolean(const std::string& key, bool v) {
  body_ += ",\"" + jsonEscape(key) + "\":" + (v ? "true" : "false");
  return *this;
}

Event& Event::numbers(const std::string& key,
                      const std::map<std::string, double>& kv) {
  body_ += ",\"" + jsonEscape(key) + "\":{";
  bool first = true;
  for (const auto& [k, v] : kv) {
    if (!first) body_ += ',';
    first = false;
    body_ += "\"" + jsonEscape(k) + "\":";
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
