#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "util/numeric.hpp"

namespace moela::util {
namespace {

[[noreturn]] void kind_error(const char* wanted, Json::Kind got) {
  static const char* names[] = {"null",   "bool",  "number",
                                "string", "array", "object"};
  throw JsonError(std::string("Json: wanted ") + wanted + ", have " +
                  names[static_cast<int>(got)]);
}

void append_double(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";  // JSON has no literal for inf/nan; see header comment
    return;
  }
  // Integral doubles print as integers (cleaner, still exact); everything
  // else gets the shortest round-trip rendering. Both via to_chars, so the
  // process locale can never change the bytes. The magnitude check must
  // come first: casting |d| >= 2^63 to long long is undefined behavior.
  if (std::fabs(d) < 1e15 &&
      d == static_cast<double>(static_cast<long long>(d))) {
    out += dec(static_cast<long long>(d));
  } else {
    out += shortest_double(d);
  }
}

void dump_value(std::string& out, const Json& v);

void dump_array(std::string& out, const JsonArray& a) {
  out += '[';
  bool first = true;
  for (const auto& item : a) {
    if (!first) out += ',';
    first = false;
    dump_value(out, item);
  }
  out += ']';
}

void dump_object(std::string& out, const JsonObject& o) {
  out += '{';
  bool first = true;
  for (const auto& [key, value] : o) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, key);
    out += ':';
    dump_value(out, value);
  }
  out += '}';
}

void dump_value(std::string& out, const Json& v) {
  switch (v.kind()) {
    case Json::Kind::kNull: out += "null"; break;
    case Json::Kind::kBool: out += v.as_bool() ? "true" : "false"; break;
    case Json::Kind::kNumber:
      if (v.holds_u64()) {
        out += dec(v.as_u64());
      } else {
        append_double(out, v.as_double());
      }
      break;
    case Json::Kind::kString: append_json_string(out, v.as_string()); break;
    case Json::Kind::kArray: dump_array(out, v.as_array()); break;
    case Json::Kind::kObject: dump_object(out, v.as_object()); break;
  }
}

// ---------------------------------------------------------------- parser

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON value");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 100;

  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("Json parse error at byte " + dec(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char expected) {
    if (!consume(expected)) {
      fail(std::string("expected '") + expected + "'");
    }
  }

  void expect_literal(const char* literal) {
    for (const char* p = literal; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        fail(std::string("bad literal (wanted \"") + literal + "\")");
      }
      ++pos_;
    }
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    switch (peek()) {
      case 'n': expect_literal("null"); return Json();
      case 't': expect_literal("true"); return Json(true);
      case 'f': expect_literal("false"); return Json(false);
      case '"': return Json(parse_string());
      case '[': return parse_array(depth);
      case '{': return parse_object(depth);
      default: return parse_number();
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const unsigned char c = text_[pos_++];
      if (c == '"') return out;
      if (c < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += static_cast<char>(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_codepoint(out, parse_hex4()); break;
        default: fail("bad escape");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail("unterminated \\u escape");
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad \\u escape digit");
    }
    return value;
  }

  void append_codepoint(std::string& out, unsigned cp) {
    // Surrogate pair: \uD800-\uDBFF must be followed by \uDC00-\uDFFF.
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u') {
        fail("lone high surrogate");
      }
      pos_ += 2;
      const unsigned low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("bad low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("lone low surrogate");
    }
    // UTF-8 encode.
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    // A plain non-negative integer keeps u64 storage (exact seeds/budgets);
    // everything else parses as a double, locale-independently.
    if (token.find_first_not_of("0123456789") == std::string::npos) {
      std::uint64_t u = 0;
      if (parse_u64(token, u)) return Json(u);
    }
    double d = 0.0;
    if (!parse_double(token, d)) fail("bad number '" + token + "'");
    return Json(d);
  }

  Json parse_array(int depth) {
    expect('[');
    JsonArray out;
    skip_ws();
    if (consume(']')) return Json(std::move(out));
    for (;;) {
      out.push_back(parse_value(depth + 1));
      skip_ws();
      if (consume(']')) return Json(std::move(out));
      expect(',');
    }
  }

  Json parse_object(int depth) {
    expect('{');
    JsonObject out;
    skip_ws();
    if (consume('}')) return Json(std::move(out));
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      out[std::move(key)] = parse_value(depth + 1);
      skip_ws();
      if (consume('}')) return Json(std::move(out));
      expect(',');
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool Json::as_bool() const {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  kind_error("bool", kind());
}

double Json::as_double() const {
  if (const double* d = std::get_if<double>(&value_)) return *d;
  if (const std::uint64_t* u = std::get_if<std::uint64_t>(&value_)) {
    return static_cast<double>(*u);
  }
  kind_error("number", kind());
}

std::uint64_t Json::as_u64() const {
  if (const std::uint64_t* u = std::get_if<std::uint64_t>(&value_)) return *u;
  if (const double* d = std::get_if<double>(&value_)) {
    if (*d >= 0.0 && *d < 18446744073709551616.0 &&
        *d == std::floor(*d)) {
      return static_cast<std::uint64_t>(*d);
    }
    throw JsonError("Json: number is not an unsigned integer");
  }
  kind_error("number", kind());
}

const std::string& Json::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&value_)) return *s;
  kind_error("string", kind());
}

const JsonArray& Json::as_array() const {
  if (const JsonArray* a = std::get_if<JsonArray>(&value_)) return *a;
  kind_error("array", kind());
}

const JsonObject& Json::as_object() const {
  if (const JsonObject* o = std::get_if<JsonObject>(&value_)) return *o;
  kind_error("object", kind());
}

const Json* Json::find(const std::string& key) const {
  const JsonObject* o = std::get_if<JsonObject>(&value_);
  if (o == nullptr) return nullptr;
  auto it = o->find(key);
  return it == o->end() ? nullptr : &it->second;
}

Json& Json::set(const std::string& key, Json value) {
  JsonObject* o = std::get_if<JsonObject>(&value_);
  if (o == nullptr) kind_error("object", kind());
  (*o)[key] = std::move(value);
  return *this;
}

Json& Json::append(Json value) {
  JsonArray* a = std::get_if<JsonArray>(&value_);
  if (a == nullptr) kind_error("array", kind());
  a->push_back(std::move(value));
  return *this;
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
}

std::string Json::dump() const {
  std::string out;
  dump_value(out, *this);
  return out;
}

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

std::optional<Json> Json::try_parse(std::string_view text,
                                    std::string* error) {
  try {
    return parse(text);
  } catch (const JsonError& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
}

std::uint64_t u64_field_or(const Json& object, const std::string& key,
                           std::uint64_t fallback) {
  const Json* value = object.find(key);
  if (value == nullptr) return fallback;
  try {
    return value->as_u64();
  } catch (const JsonError&) {
    return fallback;
  }
}

double double_field_or(const Json& object, const std::string& key,
                       double fallback) {
  const Json* value = object.find(key);
  return value != nullptr && value->is_number() ? value->as_double()
                                                : fallback;
}

std::string string_field_or(const Json& object, const std::string& key,
                            std::string fallback) {
  const Json* value = object.find(key);
  return value != nullptr && value->is_string() ? value->as_string()
                                                : std::move(fallback);
}

Json exact_number(double value) { return Json(hexfloat(value)); }

double exact_to_double(const Json& value) {
  if (value.is_number()) return value.as_double();
  if (value.is_string()) {
    const std::string& s = value.as_string();
    double d = 0.0;
    if (parse_double(s, d)) return d;
    throw JsonError("Json: string '" + s + "' is not a number");
  }
  throw JsonError("Json: expected a number or numeric string");
}

}  // namespace moela::util
