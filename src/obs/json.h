// Minimal JSON support for the observability exporters and the telemetry
// validator. Two halves:
//   * writing helpers — string escaping and locale-independent number
//     formatting used by the metrics / trace / telemetry exporters;
//   * a small recursive-descent parser producing a JsonValue tree, enough
//     to validate the exporters' own output (and chrome://tracing files)
//     without a Python or third-party dependency.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace fedsu::obs {

// --- writing -------------------------------------------------------------

// Returns `raw` quoted and escaped per RFC 8259 (control chars, quotes,
// backslashes).
std::string json_quote(const std::string& raw);

// Shortest round-trippable formatting; never emits locale commas, and maps
// non-finite values to null (JSON has no NaN/Inf).
std::string json_number(double value);

// --- parsing -------------------------------------------------------------

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  bool is_null() const { return type_ == Type::kNull; }
  bool is_array() const { return type_ == Type::kArray; }

  // Typed accessors throw std::runtime_error on type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  const std::map<std::string, JsonValue>& as_object() const;

  // Object lookup; throws if not an object or the key is absent.
  const JsonValue& at(const std::string& key) const;
  bool has(const std::string& key) const;

  static JsonValue make_null();
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double n);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(std::map<std::string, JsonValue> members);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

// Parses a complete JSON document; throws std::runtime_error with a byte
// offset on malformed input, trailing garbage, or arrays and objects nested
// deeper than 256 levels.
JsonValue json_parse(const std::string& text);

}  // namespace fedsu::obs
