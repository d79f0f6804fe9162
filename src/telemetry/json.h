// Minimal JSON writing and parsing.
//
// JsonWriter replaces the hand-rolled fprintf JSON that used to live in
// the bench binaries and backs the qlog export: it handles escaping,
// comma placement, and indentation so emitters only state structure.
// JsonValue + parse_json is the matching reader used by the qlog
// round-trip tests and the xlink_qlog analyzer. It is a strict subset of
// JSON: UTF-8 passthrough, numbers as double (integers below 2^53 are
// exact, which covers every counter the simulator can produce).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace xlink::telemetry {

/// Escapes `s` for placement inside a JSON string literal (no quotes).
std::string json_escape(const std::string& s);

/// Streaming JSON writer with automatic commas. Scopes are explicit:
///   JsonWriter w(os);
///   w.begin_object();
///   w.key("name").value("bench");
///   w.key("rows"); w.begin_array(); w.value(1.5); w.end_array();
///   w.end_object();
class JsonWriter {
 public:
  /// `indent` > 0 pretty-prints with that many spaces per level.
  explicit JsonWriter(std::ostream& os, int indent = 2)
      : os_(os), indent_(indent) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  JsonWriter& key(const std::string& k);

  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  JsonWriter& value(bool v);
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(unsigned v) {
    return value(static_cast<std::uint64_t>(v));
  }

  /// Convenience: key + value in one call.
  template <typename T>
  JsonWriter& kv(const std::string& k, const T& v) {
    key(k);
    return value(v);
  }

 private:
  void before_value();
  void newline_indent();

  std::ostream& os_;
  int indent_;
  struct Level {
    bool array = false;
    bool has_items = false;
  };
  std::vector<Level> stack_;
  bool pending_key_ = false;
};

// --------------------------------------------------------------- parsing

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  /// The number as a uint64; nullopt unless it is a whole number in
  /// [0, 2^64). The parser's strtod yields inf, negatives and fractions,
  /// which a plain integer cast turns into UB or silent truncation.
  std::optional<std::uint64_t> as_u64() const;

  /// Object member access; returns nullptr when absent or not an object.
  const JsonValue* get(const std::string& k) const;
  /// Member as uint64 (default when absent, mistyped or out of range).
  std::uint64_t get_u64(const std::string& k, std::uint64_t def = 0) const;
  double get_num(const std::string& k, double def = 0.0) const;
  std::string get_str(const std::string& k, const std::string& def = "") const;
};

/// Parses a complete JSON document; nullopt on any syntax error.
std::optional<JsonValue> parse_json(const std::string& text);

}  // namespace xlink::telemetry
