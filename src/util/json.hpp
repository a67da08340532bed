// Minimal dependency-free JSON: one value type, a compact one-line writer,
// and a strict recursive-descent parser. Built for the serving protocol
// (src/serve/) and the per-run structured logs — both are line-delimited
// JSON, so dump() always emits a single line (control characters in strings
// are escaped, objects iterate in sorted key order for deterministic
// output).
//
// Exactness: JSON number literals are decimal, so bit-exact doubles travel
// as hexfloat STRINGS ("0x1.8p+1") via exact_number() and are read back
// with exact_to_double(), which accepts either representation. Unsigned
// 64-bit integers (seeds, budgets) are a distinct storage form so they
// round-trip without passing through a double.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace moela::util {

class Json;
using JsonArray = std::vector<Json>;
/// std::map keeps dump() output key-sorted and deterministic.
using JsonObject = std::map<std::string, Json>;

/// Thrown by the typed accessors on a kind mismatch and by parse() on
/// malformed input (the message carries the byte offset).
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool value) : value_(value) {}
  Json(double value) : value_(value) {}
  Json(int value) : value_(static_cast<double>(value)) {}
  Json(std::uint64_t value) : value_(value) {}
  Json(const char* value) : value_(std::string(value)) {}
  Json(std::string value) : value_(std::move(value)) {}
  Json(JsonArray value) : value_(std::move(value)) {}
  Json(JsonObject value) : value_(std::move(value)) {}

  static Json array() { return Json(JsonArray{}); }
  static Json object() { return Json(JsonObject{}); }

  Kind kind() const {
    // The variant stores numbers in two alternatives (double and u64), so
    // the index does not map 1:1 onto Kind.
    switch (value_.index()) {
      case 0: return Kind::kNull;
      case 1: return Kind::kBool;
      case 2:
      case 3: return Kind::kNumber;
      case 4: return Kind::kString;
      case 5: return Kind::kArray;
      default: return Kind::kObject;
    }
  }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_number() const {
    return std::holds_alternative<double>(value_) ||
           std::holds_alternative<std::uint64_t>(value_);
  }
  /// True when the number is stored as an exact u64 (not via a double).
  bool holds_u64() const {
    return std::holds_alternative<std::uint64_t>(value_);
  }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_array() const { return kind() == Kind::kArray; }
  bool is_object() const { return kind() == Kind::kObject; }

  bool as_bool() const;
  /// Any number (u64 storage is converted; may round above 2^53).
  double as_double() const;
  /// Exact unsigned integer: u64 storage, or a double that is integral and
  /// in range. Anything else throws.
  std::uint64_t as_u64() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;

  /// Object field access; nullptr when absent (or not an object: the
  /// callers' "missing field" handling covers both).
  const Json* find(const std::string& key) const;

  /// Object/array builders, chainable: o.set("a", 1).set("b", "x").
  Json& set(const std::string& key, Json value);
  Json& append(Json value);

  /// Compact single-line rendering. Non-finite doubles (no JSON literal
  /// exists) render as null — exactness-critical doubles travel as
  /// exact_number() strings instead.
  std::string dump() const;

  /// Strict parse of exactly one JSON value (trailing garbage is an
  /// error). Throws JsonError with a byte offset; nesting is capped to
  /// keep adversarial input from overflowing the stack.
  static Json parse(std::string_view text);
  /// Non-throwing parse; on failure returns nullopt and fills `error`.
  static std::optional<Json> try_parse(std::string_view text,
                                       std::string* error = nullptr);

  bool operator==(const Json& other) const { return value_ == other.value_; }

 private:
  std::variant<std::nullptr_t, bool, double, std::uint64_t, std::string,
               JsonArray, JsonObject>
      value_;
};

/// Defensive object-field readers for version-skew-tolerant consumers
/// (protocol events from a daemon of another build): a missing or
/// mistyped field yields the fallback instead of throwing.
std::uint64_t u64_field_or(const Json& object, const std::string& key,
                           std::uint64_t fallback);
double double_field_or(const Json& object, const std::string& key,
                       double fallback);
std::string string_field_or(const Json& object, const std::string& key,
                            std::string fallback = {});

/// Appends `s` to `out` as a quoted JSON string literal, escaped exactly as
/// dump() escapes strings and keys. Streaming encoders that write JSON text
/// without building a Json tree (api::append_report_json) go through it, so
/// their bytes match dump()'s.
void append_json_string(std::string& out, std::string_view s);

/// Bit-exact double carrier: a hexfloat string value (util::hexfloat
/// rendering, the same one cache keys use; reports carry their doubles this
/// way on the wire and in the result cache's disk tier).
Json exact_number(double value);
/// Reads a double back from exact_number() output — or from a plain JSON
/// number, so hand-written requests can use ordinary literals.
double exact_to_double(const Json& value);

}  // namespace moela::util
