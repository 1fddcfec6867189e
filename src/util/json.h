// Minimal JSON document model used by the observability layer (run
// reports, decision event logs) and the bench report writers.
//
// Objects preserve insertion order so emitted documents are stable across
// runs (the report schema test relies on this), and numbers are written
// with enough precision to round-trip doubles.  The parser accepts strict
// JSON (RFC 8259) minus \u escapes beyond the BMP; it exists so the CLI can
// pretty-print saved reports and so tests can round-trip what we emit --
// it is not a general-purpose validating parser.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/parse_error.h"

namespace dagsched {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool value) : kind_(Kind::kBool), bool_(value) {}
  JsonValue(double value) : kind_(Kind::kNumber), number_(value) {}
  JsonValue(int value) : JsonValue(static_cast<double>(value)) {}
  JsonValue(unsigned value) : JsonValue(static_cast<double>(value)) {}
  JsonValue(std::int64_t value) : JsonValue(static_cast<double>(value)) {}
  JsonValue(std::uint64_t value) : JsonValue(static_cast<double>(value)) {}
  JsonValue(const char* value) : kind_(Kind::kString), string_(value) {}
  JsonValue(std::string value)
      : kind_(Kind::kString), string_(std::move(value)) {}

  static JsonValue array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static JsonValue object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_bool() const { return kind_ == Kind::kBool; }

  /// Typed accessors; DS_CHECK on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Array append (value must be an array).
  void push_back(JsonValue value);
  std::size_t size() const;

  /// Object insert-or-overwrite, preserving first-insertion order.
  void set(std::string key, JsonValue value);
  /// Object lookup; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;
  /// Object lookup; DS_CHECK when absent.
  const JsonValue& at(std::string_view key) const;
  bool contains(std::string_view key) const { return find(key) != nullptr; }

  /// Compact single-line serialization.
  void write(std::ostream& out) const;
  /// Indented serialization (indent = spaces per level).
  void write_pretty(std::ostream& out, int indent = 2) const;
  std::string dump() const;

  friend bool operator==(const JsonValue& lhs, const JsonValue& rhs);

 private:
  void append_impl(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parses one JSON document from `text`.  On failure returns std::nullopt
/// semantics via the bool in the pair-style API below.
struct JsonParseResult {
  bool ok = false;
  JsonValue value;
  std::string error;  // message with character offset when !ok
  std::size_t offset = 0;  // 0-based offset of that failure
};

/// Where line-oriented (JSONL) input failed: the 1-based line and column
/// (1 unless the JSON parser located the fault) and the bare message.
struct JsonlError {
  std::size_t line = 1, column = 1;
  std::string message;
  ParseError at(std::string source) const {
    return ParseError(std::move(source), line, column, message);
  }
};

JsonParseResult json_parse(std::string_view text);

/// Serializes a double the way the writer does (shortest round-trip form).
std::string json_number_to_string(double value);

/// The writer's two leaf encoders, appending to `out`: every JSON number
/// and string this program emits goes through them (JsonValue::write and
/// the event-log line writer), so there is one encoding of each.
void append_json_number(std::string& out, double value);
void append_json_string(std::string& out, std::string_view text);

/// Null-safe field readers for documents read from outside the program:
/// the value of `key` when `object` is an object holding it with the right
/// kind, else `fallback`.  They never DS_CHECK, unlike the typed accessors.
double num_at(const JsonValue& object, std::string_view key,
              double fallback = 0.0);
/// num_at of `key` inside the object at `section`, or `fallback`.
double nested_num(const JsonValue& object, std::string_view section,
                  std::string_view key, double fallback = 0.0);
std::string string_at(const JsonValue& object, std::string_view key,
                      std::string_view fallback = {});

}  // namespace dagsched
