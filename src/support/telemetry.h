// Run telemetry: a thread-safe JSONL event sink shared by every long-running
// subsystem (search, passes, the RL trainer, the fuzzer). One event = one
// JSON object = one line, so traces are streamable, greppable and parseable
// by any JSON tooling. The CLI exposes the sink via `--trace-out <file>`;
// tests use the in-memory variant and the bundled parser to round-trip
// events without touching the filesystem.
//
// JSON has no NaN/Infinity literals: non-finite numbers serialize as `null`
// (the appearance of a null cost in a trace is itself a diagnostic — it
// marks exactly the degenerate evaluations the search layer now rejects).
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfdojo {

/// Minimal JSON document model, sufficient for telemetry round-trips.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Object, Array };
  Kind kind = Kind::Null;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<std::pair<std::string, JsonValue>> object;  // insertion order
  std::vector<JsonValue> array;

  bool isNull() const { return kind == Kind::Null; }

  /// Object member lookup; nullptr if absent or not an object.
  const JsonValue* find(const std::string& key) const;
  double numberOr(const std::string& key, double def) const;
  std::string stringOr(const std::string& key, const std::string& def) const;
  bool boolOr(const std::string& key, bool def) const;
};

/// Parses one JSON document (object/array/scalar). Returns false and fills
/// `error` (when given) on malformed input or trailing garbage.
bool parseJson(std::string_view text, JsonValue& out,
               std::string* error = nullptr);

/// Escapes a string for embedding between JSON quotes.
std::string jsonEscape(std::string_view s);

/// One telemetry event, assembled field by field in emission order. The
/// "type" discriminator is always the first member. Keys and strings are
/// escaped straight into the event's buffer.
class Event {
 public:
  explicit Event(std::string_view type);

  Event& num(std::string_view key, double v);  // non-finite -> null
  Event& integer(std::string_view key, std::int64_t v);
  Event& str(std::string_view key, std::string_view v);
  Event& boolean(std::string_view key, bool v);
  /// Nested object of numeric members (e.g. per-scope attribution maps).
  Event& numbers(std::string_view key,
                 const std::map<std::string, double>& kv);

  /// The serialized JSON object (no trailing newline).
  std::string json() const;

 private:
  std::string body_;  // "{"type":"..." — closed by json()
};

/// Thread-safe JSONL sink. All subsystem hooks take a `Telemetry*` and treat
/// nullptr as "telemetry off", so the hot paths pay one pointer test.
class Telemetry {
 public:
  /// In-memory sink (tests, programmatic consumers).
  Telemetry();
  /// File sink; throws Error if the file cannot be opened for writing.
  static std::unique_ptr<Telemetry> toFile(const std::string& path);
  ~Telemetry();

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Appends one event as a single line. Safe to call concurrently.
  void emit(const Event& e);

  std::int64_t events() const;
  /// Contents accumulated by an in-memory sink ("" for file sinks).
  std::string buffered() const;
  void flush();

 private:
  explicit Telemetry(std::FILE* f);

  mutable std::mutex mu_;
  std::string buffer_;
  std::FILE* file_ = nullptr;
  std::int64_t events_ = 0;
};

}  // namespace perfdojo
