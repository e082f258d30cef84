#include "scenario/spec_io.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <type_traits>
#include <utility>

#include "scenario/cc_factories.hpp"

namespace rss::scenario::spec {

namespace {

// --- error helpers --------------------------------------------------------

[[noreturn]] void fail(SpecError::Code code, const std::string& field, int line,
                       const std::string& msg) {
  std::string what = "spec";
  if (!field.empty()) what += ": " + field;
  if (line > 0) what += " (line " + std::to_string(line) + ")";
  what += ": " + msg;
  throw SpecError(code, field, line, what);
}

[[nodiscard]] std::string sub(const std::string& base, std::string_view key) {
  if (base.empty()) return std::string{key};
  return base + "." + std::string{key};
}

[[nodiscard]] std::string idx(const std::string& base, std::size_t i) {
  return base + "[" + std::to_string(i) + "]";
}

}  // namespace

// --- JsonValue ------------------------------------------------------------

JsonValue JsonValue::make_null() { return {}; }

JsonValue JsonValue::make_bool(bool v) {
  JsonValue j;
  j.type = Type::kBool;
  j.boolean = v;
  return j;
}

JsonValue JsonValue::make_number(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return make_number_literal(buf);
}

JsonValue JsonValue::make_number(std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  return make_number_literal(buf);
}

JsonValue JsonValue::make_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return make_number_literal(buf);
}

JsonValue JsonValue::make_number_literal(std::string literal) {
  JsonValue j;
  j.type = Type::kNumber;
  j.number = std::move(literal);
  return j;
}

JsonValue JsonValue::make_string(std::string v) {
  JsonValue j;
  j.type = Type::kString;
  j.string = std::move(v);
  return j;
}

JsonValue JsonValue::make_array() {
  JsonValue j;
  j.type = Type::kArray;
  return j;
}

JsonValue JsonValue::make_object() {
  JsonValue j;
  j.type = Type::kObject;
  return j;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

JsonValue* JsonValue::find(std::string_view key) {
  if (type != Type::kObject) return nullptr;
  for (auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

void JsonValue::set(std::string_view key, JsonValue value) {
  if (JsonValue* existing = find(key)) {
    *existing = std::move(value);
    return;
  }
  object.emplace_back(std::string{key}, std::move(value));
}

double JsonValue::as_double(const std::string& field) const {
  if (type != Type::kNumber)
    fail(SpecError::Code::kWrongType, field, line, "expected a number");
  const double v = std::strtod(number.c_str(), nullptr);
  if (!std::isfinite(v))
    fail(SpecError::Code::kBadValue, field, line,
         "number out of range: '" + number + "'");
  return v;
}

std::uint64_t JsonValue::as_u64(const std::string& field) const {
  if (type != Type::kNumber)
    fail(SpecError::Code::kWrongType, field, line, "expected a number");
  if (number.find_first_of(".eE-") != std::string::npos)
    fail(SpecError::Code::kBadValue, field, line,
         "expected a non-negative integer, got '" + number + "'");
  errno = 0;
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(number.c_str(), &end, 10);
  if (errno == ERANGE || end != number.c_str() + number.size())
    fail(SpecError::Code::kBadValue, field, line,
         "integer out of range: '" + number + "'");
  return v;
}

std::int64_t JsonValue::as_i64(const std::string& field) const {
  if (type != Type::kNumber)
    fail(SpecError::Code::kWrongType, field, line, "expected a number");
  if (number.find_first_of(".eE") != std::string::npos)
    fail(SpecError::Code::kBadValue, field, line,
         "expected an integer, got '" + number + "'");
  errno = 0;
  char* end = nullptr;
  const std::int64_t v = std::strtoll(number.c_str(), &end, 10);
  if (errno == ERANGE || end != number.c_str() + number.size())
    fail(SpecError::Code::kBadValue, field, line,
         "integer out of range: '" + number + "'");
  return v;
}

bool JsonValue::as_bool(const std::string& field) const {
  if (type != Type::kBool)
    fail(SpecError::Code::kWrongType, field, line, "expected true or false");
  return boolean;
}

const std::string& JsonValue::as_string(const std::string& field) const {
  if (type != Type::kString)
    fail(SpecError::Code::kWrongType, field, line, "expected a string");
  return string;
}

// --- JSON parser ----------------------------------------------------------

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_{text} {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size())
      fail(SpecError::Code::kSyntax, "", line_, "trailing characters after JSON document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 128;

  [[noreturn]] void syntax(const std::string& msg) {
    fail(SpecError::Code::kSyntax, "", line_, msg);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') ++line_;
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] char peek() {
    if (pos_ >= text_.size()) syntax("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c)
      syntax(std::string{"expected '"} + c + "'");
    ++pos_;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) syntax("nesting too deep");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return parse_string_value();
      case 't':
      case 'f':
        return parse_bool();
      case 'n':
        parse_literal("null");
        return JsonValue::make_null();
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        syntax(std::string{"unexpected character '"} + c + "'");
    }
  }

  JsonValue parse_object(int depth) {
    JsonValue obj = JsonValue::make_object();
    obj.line = line_;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    std::set<std::string> keys;
    while (true) {
      skip_ws();
      if (peek() != '"') syntax("expected a quoted object key");
      const int key_line = line_;
      std::string key = parse_string_text();
      if (!keys.insert(key).second)
        fail(SpecError::Code::kSyntax, "", key_line, "duplicate object key \"" + key + "\"");
      skip_ws();
      expect(':');
      obj.object.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return obj;
      }
      syntax("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array(int depth) {
    JsonValue arr = JsonValue::make_array();
    arr.line = line_;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.array.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return arr;
      }
      syntax("expected ',' or ']' in array");
    }
  }

  JsonValue parse_string_value() {
    const int at = line_;
    JsonValue v = JsonValue::make_string(parse_string_text());
    v.line = at;
    return v;
  }

  std::string parse_string_text() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) syntax("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\n') syntax("unescaped newline in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) syntax("unterminated escape sequence");
      c = text_[pos_++];
      switch (c) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode_escape(out); break;
        default: syntax(std::string{"invalid escape '\\"} + c + "'");
      }
    }
  }

  void append_unicode_escape(std::string& out) {
    if (pos_ + 4 > text_.size()) syntax("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else syntax("invalid hex digit in \\u escape");
    }
    // UTF-8 encode the BMP code point (surrogate pairs are out of scope for
    // topology names; reject them explicitly).
    if (code >= 0xD800 && code <= 0xDFFF) syntax("surrogate \\u escapes are not supported");
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  JsonValue parse_bool() {
    if (text_.substr(pos_).starts_with("true")) {
      pos_ += 4;
      JsonValue v = JsonValue::make_bool(true);
      v.line = line_;
      return v;
    }
    parse_literal("false");
    JsonValue v = JsonValue::make_bool(false);
    v.line = line_;
    return v;
  }

  void parse_literal(std::string_view word) {
    if (!text_.substr(pos_).starts_with(word))
      syntax("invalid literal (expected " + std::string{word} + ")");
    pos_ += word.size();
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    const int at = line_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
      syntax("malformed number");
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))
      syntax("malformed number (leading zeros are not allowed)");
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        syntax("malformed number (digits required after '.')");
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        syntax("malformed number (digits required in exponent)");
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    JsonValue v = JsonValue::make_number_literal(std::string{text_.substr(start, pos_ - start)});
    v.line = at;
    return v;
  }

  std::string_view text_;
  std::size_t pos_{0};
  int line_{1};
};

}  // namespace

JsonValue json_parse(std::string_view text) { return JsonParser{text}.parse_document(); }

// --- JSON serializer ------------------------------------------------------

namespace {

void append_quoted(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

[[nodiscard]] bool is_scalar_array(const JsonValue& v) {
  for (const auto& e : v.array)
    if (e.type == JsonValue::Type::kArray || e.type == JsonValue::Type::kObject) return false;
  return true;
}

void serialize_value(std::string& out, const JsonValue& v, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  const std::string pad_in(static_cast<std::size_t>(indent + 1) * 2, ' ');
  switch (v.type) {
    case JsonValue::Type::kNull:
      out += "null";
      return;
    case JsonValue::Type::kBool:
      out += v.boolean ? "true" : "false";
      return;
    case JsonValue::Type::kNumber:
      out += v.number;
      return;
    case JsonValue::Type::kString:
      append_quoted(out, v.string);
      return;
    case JsonValue::Type::kArray: {
      if (v.array.empty()) {
        out += "[]";
        return;
      }
      // Scalar-only arrays render inline; nested ones get a line per element.
      if (is_scalar_array(v)) {
        out.push_back('[');
        for (std::size_t i = 0; i < v.array.size(); ++i) {
          if (i) out += ", ";
          serialize_value(out, v.array[i], indent);
        }
        out.push_back(']');
        return;
      }
      out += "[\n";
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        out += pad_in;
        serialize_value(out, v.array[i], indent + 1);
        if (i + 1 < v.array.size()) out.push_back(',');
        out.push_back('\n');
      }
      out += pad + "]";
      return;
    }
    case JsonValue::Type::kObject: {
      if (v.object.empty()) {
        out += "{}";
        return;
      }
      out += "{\n";
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        out += pad_in;
        append_quoted(out, v.object[i].first);
        out += ": ";
        serialize_value(out, v.object[i].second, indent + 1);
        if (i + 1 < v.object.size()) out.push_back(',');
        out.push_back('\n');
      }
      out += pad + "}";
      return;
    }
  }
}

}  // namespace

std::string json_serialize(const JsonValue& value) {
  std::string out;
  serialize_value(out, value, 0);
  out.push_back('\n');
  return out;
}

// --- unit-tagged scalars --------------------------------------------------

namespace {

/// Split "<number><suffix>" and return the suffix. The numeric part is
/// held to a strict `digits[.digits]` grammar (no sign, whitespace, hex,
/// or exponent — strtod alone would accept all of those), matching the
/// strictness of the JSON layer. Throws kBadValue when it is missing or
/// malformed.
double split_unit(const std::string& text, const std::string& field, std::string& suffix) {
  std::size_t i = 0;
  while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) ++i;
  const std::size_t int_digits = i;
  if (i < text.size() && text[i] == '.') {
    ++i;
    const std::size_t frac_start = i;
    while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) ++i;
    if (i == frac_start)
      fail(SpecError::Code::kBadValue, field, 0, "malformed value '" + text + "'");
  }
  if (int_digits == 0)
    fail(SpecError::Code::kBadValue, field, 0, "malformed value '" + text + "'");
  const double v = std::strtod(text.substr(0, i).c_str(), nullptr);
  if (!std::isfinite(v))
    fail(SpecError::Code::kBadValue, field, 0, "malformed value '" + text + "'");
  suffix.assign(text, i, std::string::npos);
  return v;
}

}  // namespace

sim::Time parse_time(const std::string& text, const std::string& field) {
  std::string suffix;
  const double v = split_unit(text, field, suffix);
  double ns_per_unit = 0;
  if (suffix == "ns") ns_per_unit = 1;
  else if (suffix == "us") ns_per_unit = 1e3;
  else if (suffix == "ms") ns_per_unit = 1e6;
  else if (suffix == "s") ns_per_unit = 1e9;
  else
    fail(SpecError::Code::kBadValue, field, 0,
         "bad time unit in '" + text + "' (expected ns, us, ms, or s)");
  const double ns = v * ns_per_unit;
  if (ns > 9.2e18)
    fail(SpecError::Code::kBadValue, field, 0, "time '" + text + "' out of range");
  return sim::Time::nanoseconds(static_cast<std::int64_t>(ns + 0.5));
}

std::string format_time(sim::Time t) {
  const std::int64_t ns = t.nanoseconds_count();
  char buf[40];
  if (ns == 0) {
    return "0s";
  } else if (ns % 1'000'000'000 == 0) {
    std::snprintf(buf, sizeof buf, "%" PRId64 "s", ns / 1'000'000'000);
  } else if (ns % 1'000'000 == 0) {
    std::snprintf(buf, sizeof buf, "%" PRId64 "ms", ns / 1'000'000);
  } else if (ns % 1'000 == 0) {
    std::snprintf(buf, sizeof buf, "%" PRId64 "us", ns / 1'000);
  } else {
    std::snprintf(buf, sizeof buf, "%" PRId64 "ns", ns);
  }
  return buf;
}

net::DataRate parse_rate(const std::string& text, const std::string& field) {
  std::string suffix;
  const double v = split_unit(text, field, suffix);
  double bps_per_unit = 0;
  if (suffix == "bps") bps_per_unit = 1;
  else if (suffix == "kbps") bps_per_unit = 1e3;
  else if (suffix == "mbps") bps_per_unit = 1e6;
  else if (suffix == "gbps") bps_per_unit = 1e9;
  else
    fail(SpecError::Code::kBadValue, field, 0,
         "bad rate unit in '" + text + "' (expected bps, kbps, mbps, or gbps)");
  const double bps = v * bps_per_unit;
  if (bps < 1 || bps > 1.8e19)
    fail(SpecError::Code::kBadValue, field, 0, "rate '" + text + "' out of range");
  return net::DataRate::bps(static_cast<std::uint64_t>(bps + 0.5));
}

std::string format_rate(net::DataRate rate) {
  const std::uint64_t bps = rate.bits_per_second();
  char buf[40];
  if (bps != 0 && bps % 1'000'000'000 == 0) {
    std::snprintf(buf, sizeof buf, "%" PRIu64 "gbps", bps / 1'000'000'000);
  } else if (bps != 0 && bps % 1'000'000 == 0) {
    std::snprintf(buf, sizeof buf, "%" PRIu64 "mbps", bps / 1'000'000);
  } else if (bps != 0 && bps % 1'000 == 0) {
    std::snprintf(buf, sizeof buf, "%" PRIu64 "kbps", bps / 1'000);
  } else {
    std::snprintf(buf, sizeof buf, "%" PRIu64 "bps", bps);
  }
  return buf;
}

// --- schema: one descriptor table per spec struct -------------------------
// kFields<T> lists, in file order, one Field per JSON key of struct T: the
// key, the member it binds, and read/write functions derived from the
// member's type by the decode/encode overloads. read_object walks a table in
// order, then rejects keys it does not name; write_object emits in the same
// order and elides members equal to the value-initialized struct's. What a
// type cannot say is a named guard or check beside the tables.

namespace {

template <typename T>
struct Field {
  std::string_view name{};
  void (*read)(const JsonValue& v, const std::string& path, T& obj){nullptr};
  /// The member as JSON, or nullopt to elide it (never when keep_default).
  std::optional<JsonValue> (*write)(const T& obj, bool keep_default){nullptr};
  /// The requirement (e.g. "qdisc": "red") earlier fields leave unmet, or nullptr.
  const char* (*guard)(const T& obj){nullptr};
  /// Value rule run after the read: a range or a name the type cannot say.
  void (*check)(const T& obj, const JsonValue& v, const std::string& path){nullptr};
  bool required{false};  ///< reading fails with kMissingField when absent
  bool always{false};    ///< written even when equal to the default
};

/// The descriptor table of a spec struct (empty for any other type).
template <typename T>
constexpr std::array<Field<T>, 0> kFields{};

/// The JSON names of an enum's values (empty for any other type).
template <typename E, std::size_t N = 0>
using Names = std::array<std::pair<std::string_view, E>, N>;
template <typename E>
constexpr Names<E> kNames{};

template <typename M>
concept Table = !kFields<M>.empty();
template <typename M>
concept Enum = !kNames<M>.empty();
template <typename M>
concept List = requires(M& m) { m.emplace_back(); };

void decode(const JsonValue& v, const std::string& path, bool& m) { m = v.as_bool(path); }
void decode(const JsonValue& v, const std::string& path, double& m) { m = v.as_double(path); }
void decode(const JsonValue& v, const std::string& path, std::string& m) { m = v.as_string(path); }
void decode(const JsonValue& v, const std::string& path, sim::Time& m) {
  m = parse_time(v.as_string(path), path);
}
void decode(const JsonValue& v, const std::string& path, std::optional<sim::Time>& m) {
  m = parse_time(v.as_string(path), path);
}
void decode(const JsonValue& v, const std::string& path, net::DataRate& m) {
  m = parse_rate(v.as_string(path), path);
}
void decode(const JsonValue& v, const std::string& /*path*/, JsonValue& m) { m = v; }

JsonValue encode(bool m) { return JsonValue::make_bool(m); }
JsonValue encode(double m) { return JsonValue::make_number(m); }
JsonValue encode(const std::string& m) { return JsonValue::make_string(m); }
JsonValue encode(sim::Time m) { return JsonValue::make_string(format_time(m)); }
JsonValue encode(const std::optional<sim::Time>& m) { return m ? encode(*m) : JsonValue{}; }
JsonValue encode(net::DataRate m) { return JsonValue::make_string(format_rate(m)); }
JsonValue encode(const JsonValue& m) { return m; }

template <typename M>
using Wide = std::conditional_t<std::is_signed_v<M>, std::int64_t, std::uint64_t>;

template <std::integral M>
void decode(const JsonValue& v, const std::string& path, M& m) {
  const Wide<M> raw = std::is_signed_v<M> ? Wide<M>(v.as_i64(path)) : Wide<M>(v.as_u64(path));
  if (!std::in_range<M>(raw)) fail(SpecError::Code::kBadValue, path, v.line, "value out of range");
  m = static_cast<M>(raw);
}

template <std::integral M>
JsonValue encode(M m) {
  return JsonValue::make_number(static_cast<Wide<M>>(m));
}

template <Enum M>
void decode(const JsonValue& v, const std::string& path, M& m) {
  const std::string& name = v.as_string(path);
  std::string expected;
  for (const auto& [text, value] : kNames<M>) {
    if (text == name) {
      m = value;
      return;
    }
    expected += (expected.empty() ? "\"" : ", \"") + std::string{text} + "\"";
  }
  fail(SpecError::Code::kBadValue, path, v.line,
       "unknown value '" + name + "' (expected " + expected + ")");
}

template <Enum M>
JsonValue encode(const M& m) {
  for (const auto& [text, value] : kNames<M>)
    if (value == m) return JsonValue::make_string(std::string{text});
  return JsonValue::make_null();  // unreachable: every enumerator is named
}

template <typename T>
void read_object(std::span<const Field<T>> fields, const JsonValue& v, const std::string& path,
                 T& obj) {
  if (!v.is_object()) fail(SpecError::Code::kWrongType, path, v.line, "expected an object");
  for (const Field<T>& f : fields) {
    const JsonValue* x = v.find(f.name);
    if (!x && f.required)
      fail(SpecError::Code::kMissingField, sub(path, f.name), v.line, "missing required field");
    if (!x) continue;
    const std::string at = sub(path, f.name);
    if (const char* unmet = f.guard ? f.guard(obj) : nullptr)
      fail(SpecError::Code::kBadValue, at, x->line, std::string{"only valid with "} + unmet);
    f.read(*x, at, obj);
    if (f.check) f.check(obj, *x, at);
  }
  for (const auto& [key, value] : v.object) {
    if (std::ranges::none_of(fields, [&](const Field<T>& f) { return f.name == key; }))
      fail(SpecError::Code::kUnknownField, sub(path, key), value.line,
           "unknown field \"" + key + "\"");
  }
}

/// A block missing a required key comes out empty, so its parent elides it.
template <typename T>
[[nodiscard]] JsonValue write_object(std::span<const Field<T>> fields, const T& obj) {
  JsonValue o = JsonValue::make_object();
  for (const Field<T>& f : fields) {
    if (f.guard && f.guard(obj)) continue;
    std::optional<JsonValue> j = f.write(obj, f.always);
    if (!j && f.required) return JsonValue::make_object();
    if (j) o.object.emplace_back(std::string{f.name}, std::move(*j));
  }
  return o;
}

template <Table M>
void decode(const JsonValue& v, const std::string& path, M& obj) {
  read_object<M>(kFields<M>, v, path, obj);
}

template <Table M>
JsonValue encode(const M& obj) {
  return write_object<M>(kFields<M>, obj);
}

template <List M>
void decode(const JsonValue& v, const std::string& path, M& m) {
  if (!v.is_array()) fail(SpecError::Code::kWrongType, path, v.line, "expected an array");
  m.reserve(v.array.size());
  for (std::size_t i = 0; i < v.array.size(); ++i)
    decode(v.array[i], idx(path, i), m.emplace_back());
}

template <List M>
JsonValue encode(const M& list) {
  JsonValue a = JsonValue::make_array();
  for (const auto& e : list) a.array.push_back(encode(e));
  return a;
}

template <typename C, typename M>
C owner_of(M C::*);
template <auto First, auto...>
struct PathOwner {
  using type = decltype(owner_of(First));
};

/// The descriptor for the member at `Path`: one member pointer, or a chain
/// into a nested struct. Blocks and lists are elided when empty, anything
/// else when equal to the value-initialized owner's member.
template <auto... Path, typename T = typename PathOwner<Path...>::type>
[[nodiscard]] constexpr Field<T> field(std::string_view name, Field<T> f = {}) {
  f.name = name;
  f.read = [](const JsonValue& v, const std::string& path, T& obj) {
    decode(v, path, (obj .* ... .* Path));
  };
  f.write = [](const T& obj, bool keep_default) -> std::optional<JsonValue> {
    const auto& m = (obj .* ... .* Path);
    if constexpr (Table<std::remove_cvref_t<decltype(m)>> ||
                  List<std::remove_cvref_t<decltype(m)>>) {
      JsonValue j = encode(m);
      if (!keep_default && j.object.empty() && j.array.empty()) return std::nullopt;
      return j;
    } else {
      static const T defaults{};
      if (!keep_default && m == (defaults .* ... .* Path)) return std::nullopt;
      return encode(m);
    }
  };
  return f;
}

// --- enum names, guards and checks ----------------------------------------

template <>
constexpr Names<QueueDiscipline, 3> kNames<QueueDiscipline>{
    {{"droptail", QueueDiscipline::kDropTail},
     {"red", QueueDiscipline::kRed},
     {"codel", QueueDiscipline::kCodel}}};
template <>
constexpr Names<TrafficModel, 2> kNames<TrafficModel>{
    {{"packet", TrafficModel::kPacket}, {"fluid", TrafficModel::kFluid}}};
template <>
constexpr Names<std::optional<sim::QueueBackend>, 3> kNames<std::optional<sim::QueueBackend>>{
    {{"binary_heap", sim::QueueBackend::kBinaryHeap},
     {"calendar_queue", sim::QueueBackend::kCalendarQueue},
     {"auto", std::nullopt}}};
template <>
constexpr Names<SweepSpec::Mode, 2> kNames<SweepSpec::Mode>{
    {{"grid", SweepSpec::Mode::kGrid}, {"zip", SweepSpec::Mode::kZip}}};

/// A flow as the file writes it: the FlowSpec plus its cc (ScenarioSpec::flow_cc).
struct FlowEntry {
  FlowSpec flow;
  std::string cc{"reno"};
};
constexpr auto kFlow = &FlowEntry::flow;
constexpr auto kTopology = &ScenarioSpec::topology;

const char* needs_red(const DeviceSpec& d) {
  return d.qdisc == QueueDiscipline::kRed ? nullptr : R"("qdisc": "red")";
}
const char* needs_codel(const DeviceSpec& d) {
  return d.qdisc == QueueDiscipline::kCodel ? nullptr : R"("qdisc": "codel")";
}
const char* needs_fluid(const FlowEntry& e) {
  return e.flow.model == TrafficModel::kFluid ? nullptr : R"("model": "fluid")";
}

/// A fluid aggregate has no TCP machinery: packet-only keys are rejected
/// on it, not silently ignored.
const char* needs_packet(const FlowEntry& e) {
  return e.flow.model == TrafficModel::kPacket ? nullptr : R"("model": "packet")";
}

void check_cc(const FlowEntry& e, const JsonValue& v, const std::string& path) {
  try {
    (void)factory_by_name(e.cc);
  } catch (const std::invalid_argument&) {
    std::string known;
    for (const auto& n : variant_names()) known += (known.empty() ? "" : ", ") + n;
    fail(SpecError::Code::kBadValue, path, v.line,
         "unknown congestion-control variant '" + e.cc + "' (known: " + known + ")");
  }
}

void check_decrease(const net::FluidOptions& o, const JsonValue& v, const std::string& path) {
  if (o.decrease <= 0.0 || o.decrease >= 1.0)
    fail(SpecError::Code::kBadValue, path, v.line, "decrease factor must be in (0, 1)");
}

void check_partitions(const ExecutionPolicy& p, const JsonValue& v, const std::string& path) {
  if (p.partitions == 0) fail(SpecError::Code::kBadValue, path, v.line, "partitions must be >= 1");
}

void check_axis_values(const SweepAxis& axis, const JsonValue& v, const std::string& path) {
  if (axis.values.empty())
    fail(SpecError::Code::kBadSweep, path, v.line, "sweep axis has no values");
  for (const auto& value : axis.values) {
    if (value.is_array() || value.is_object())
      fail(SpecError::Code::kBadSweep, path, value.line, "sweep values must be scalars");
  }
}

void check_zip_lengths(const SweepSpec& sweep, const JsonValue& v, const std::string& path) {
  if (sweep.mode != SweepSpec::Mode::kZip) return;
  for (const auto& axis : sweep.axes) {
    const std::size_t len = sweep.axes.front().values.size();
    if (axis.values.size() != len)
      fail(SpecError::Code::kBadSweep, path, v.line,
           "zip sweep axes must have equal lengths (axis '" + sweep.axes.front().field +
               "' has " + std::to_string(len) + ", axis '" + axis.field + "' has " +
               std::to_string(axis.values.size()) + ")");
  }
}

/// "web100": {...} attaches a polling agent: the block's presence is the
/// bool FlowSpec::web100, and it is written whenever that is set.
constexpr std::array kWeb100Fields{field<&FlowSpec::web100_poll_period>("poll")};

void read_web100(const JsonValue& v, const std::string& path, FlowEntry& e) {
  e.flow.web100 = true;
  read_object<FlowSpec>(kWeb100Fields, v, path, e.flow);
}

std::optional<JsonValue> write_web100(const FlowEntry& e, bool /*keep_default*/) {
  if (!e.flow.web100) return std::nullopt;
  return write_object<FlowSpec>(kWeb100Fields, e.flow);
}

// --- tables ---------------------------------------------------------------

template <>
constexpr std::array kFields<net::RedQueue::Options>{
    field<&net::RedQueue::Options::min_threshold>("min_threshold"),
    field<&net::RedQueue::Options::max_threshold>("max_threshold"),
    field<&net::RedQueue::Options::max_drop_probability>("max_drop_probability"),
    field<&net::RedQueue::Options::queue_weight>("queue_weight"),
};
template <>
constexpr std::array kFields<net::CodelQueue::Options>{
    field<&net::CodelQueue::Options::target>("target"),
    field<&net::CodelQueue::Options::interval>("interval"),
};
template <>
constexpr std::array kFields<DeviceSpec>{
    field<&DeviceSpec::rate>("rate"),
    field<&DeviceSpec::ifq_packets>("ifq_packets"),
    field<&DeviceSpec::qdisc>("qdisc"),
    field<&DeviceSpec::red>("red", {.guard = needs_red}),
    field<&DeviceSpec::codel>("codel", {.guard = needs_codel}),
    field<&DeviceSpec::ecn_threshold>("ecn_threshold"),
    field<&DeviceSpec::name>("name"),
};
template <>
constexpr std::array kFields<LinkSpec>{
    field<&LinkSpec::a>("a", {.required = true, .always = true}),
    field<&LinkSpec::b>("b", {.required = true, .always = true}),
    field<&LinkSpec::delay>("delay", {.always = true}),
    field<&LinkSpec::a_dev>("a_dev"),
    field<&LinkSpec::b_dev>("b_dev"),
};
template <>
constexpr std::array kFields<tcp::RttEstimator::Options>{
    field<&tcp::RttEstimator::Options::initial_rto>("initial_rto"),
    field<&tcp::RttEstimator::Options::min_rto>("min_rto"),
    field<&tcp::RttEstimator::Options::max_rto>("max_rto"),
    field<&tcp::RttEstimator::Options::alpha>("alpha"),
    field<&tcp::RttEstimator::Options::beta>("beta"),
    field<&tcp::RttEstimator::Options::k>("k"),
};
template <>
constexpr std::array kFields<tcp::TcpSender::Options>{
    field<&tcp::TcpSender::Options::mss>("mss"),
    field<&tcp::TcpSender::Options::initial_seq>("initial_seq"),
    field<&tcp::TcpSender::Options::rwnd_limit_bytes>("rwnd_limit_bytes"),
    field<&tcp::TcpSender::Options::stall_retry_delay>("stall_retry_delay"),
    field<&tcp::TcpSender::Options::enable_sack>("enable_sack"),
    field<&tcp::TcpSender::Options::cwnd_validation>("cwnd_validation"),
    field<&tcp::TcpSender::Options::trace_cwnd>("trace_cwnd"),
    field<&tcp::TcpSender::Options::trace_stalls>("trace_stalls"),
    field<&tcp::TcpSender::Options::rtt>("rtt"),
};
template <>
constexpr std::array kFields<tcp::TcpReceiver::Options>{
    field<&tcp::TcpReceiver::Options::initial_seq>("initial_seq"),
    field<&tcp::TcpReceiver::Options::advertised_window>("advertised_window"),
    field<&tcp::TcpReceiver::Options::ack_every>("ack_every"),
    field<&tcp::TcpReceiver::Options::delayed_ack_timeout>("delayed_ack_timeout"),
    field<&tcp::TcpReceiver::Options::enable_sack>("enable_sack"),
    field<&tcp::TcpReceiver::Options::quickack_segments>("quickack_segments"),
};
template <>
constexpr std::array kFields<net::FluidOptions>{
    field<&net::FluidOptions::initial_rate>("initial_rate"),
    field<&net::FluidOptions::peak_rate>("peak_rate"),
    field<&net::FluidOptions::stride>("stride"),
    field<&net::FluidOptions::packet_bytes>("packet_bytes"),
    field<&net::FluidOptions::rtt>("rtt"),
    field<&net::FluidOptions::decrease>("decrease", {.check = check_decrease}),
};
template <>
constexpr std::array kFields<FlowEntry>{
    field<kFlow, &FlowSpec::src>("src", {.required = true, .always = true}),
    field<kFlow, &FlowSpec::dst>("dst", {.required = true, .always = true}),
    field<kFlow, &FlowSpec::flow_id>("id"),
    field<kFlow, &FlowSpec::start>("start"),
    field<kFlow, &FlowSpec::model>("model"),
    field<kFlow, &FlowSpec::fluid>("fluid", {.guard = needs_fluid}),
    field<&FlowEntry::cc>("cc", {.guard = needs_packet, .check = check_cc, .always = true}),
    field<kFlow, &FlowSpec::ecn>("ecn", {.guard = needs_packet}),
    field<kFlow, &FlowSpec::sender>("sender", {.guard = needs_packet}),
    field<kFlow, &FlowSpec::receiver>("receiver", {.guard = needs_packet}),
    Field<FlowEntry>{"web100", read_web100, write_web100, needs_packet},
};
template <>
constexpr std::array kFields<ExecutionPolicy>{
    field<&ExecutionPolicy::backend>("backend"),
    field<&ExecutionPolicy::partitions>("partitions", {.check = check_partitions}),
    field<&ExecutionPolicy::threads>("threads"),
};
template <>
constexpr std::array kFields<RunSpec>{
    field<&RunSpec::duration>("duration"),
    field<&RunSpec::measure_start>("measure_start"),
};
template <>
constexpr std::array kFields<SweepAxis>{
    field<&SweepAxis::field>("field", {.required = true, .always = true}),
    field<&SweepAxis::values>("values",
                              {.check = check_axis_values, .required = true, .always = true}),
};
template <>
constexpr std::array kFields<SweepSpec>{
    field<&SweepSpec::mode>("mode"),
    field<&SweepSpec::axes>("axes", {.check = check_zip_lengths, .required = true}),
};

/// ScenarioSpec keeps each flow's cc beside topology.flows, so "flows"
/// converts through FlowEntry one flow at a time.
void read_flows(const JsonValue& v, const std::string& path, ScenarioSpec& s) {
  if (!v.is_array()) fail(SpecError::Code::kWrongType, path, v.line, "expected an array");
  s.topology.flows.reserve(v.array.size());
  s.flow_cc.reserve(v.array.size());
  for (std::size_t i = 0; i < v.array.size(); ++i) {
    FlowEntry e;
    decode(v.array[i], idx(path, i), e);
    s.topology.flows.push_back(std::move(e.flow));
    s.flow_cc.push_back(std::move(e.cc));
  }
}

std::optional<JsonValue> write_flows(const ScenarioSpec& s, bool /*keep_default*/) {
  if (s.topology.flows.empty()) return std::nullopt;
  JsonValue flows = JsonValue::make_array();
  for (std::size_t i = 0; i < s.topology.flows.size(); ++i)
    flows.array.push_back(
        encode(FlowEntry{s.topology.flows[i], i < s.flow_cc.size() ? s.flow_cc[i] : "reno"}));
  return flows;
}

template <>
constexpr std::array kFields<ScenarioSpec>{
    field<&ScenarioSpec::name>("name"),
    field<kTopology, &TopologySpec::seed>("seed"),
    field<kTopology, &TopologySpec::backend>("backend"),
    field<kTopology, &TopologySpec::execution>("execution"),
    field<kTopology, &TopologySpec::nodes>("nodes", {.required = true, .always = true}),
    field<kTopology, &TopologySpec::links>("links"),
    Field<ScenarioSpec>{"flows", read_flows, write_flows},
    field<&ScenarioSpec::run>("run"),
    field<&ScenarioSpec::sweep>("sweep"),
};

}  // namespace

// --- ScenarioSpec parse/serialize -----------------------------------------

std::size_t SweepSpec::point_count() const {
  if (axes.empty()) return 1;
  if (mode == Mode::kZip) return axes.front().values.size();
  std::size_t count = 1;
  for (const auto& axis : axes) count *= axis.values.size();
  return count;
}

ScenarioSpec parse_scenario_spec(const JsonValue& document) {
  ScenarioSpec s;
  decode(document, "", s);
  return s;
}

ScenarioSpec parse_scenario_spec(std::string_view json_text) {
  return parse_scenario_spec(json_parse(json_text));
}

std::string read_spec_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error("cannot open spec file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

ScenarioSpec load_scenario_spec(const std::string& path) {
  return parse_scenario_spec(read_spec_file(path));
}

void check_scenario_spec(const ScenarioSpec& spec) { (void)validated_routes(spec.topology); }

JsonValue scenario_spec_to_json(const ScenarioSpec& spec) { return encode(spec); }

std::string serialize_scenario_spec(const ScenarioSpec& spec) {
  return json_serialize(scenario_spec_to_json(spec));
}

// --- sweep expansion ------------------------------------------------------

namespace {

/// One "name[3][0]"-style path segment.
struct PathSegment {
  std::string key;
  std::vector<std::size_t> indices;
};

[[nodiscard]] std::vector<PathSegment> parse_field_path(const std::string& path) {
  std::vector<PathSegment> segments;
  std::size_t i = 0;
  while (i < path.size()) {
    PathSegment seg;
    while (i < path.size() && path[i] != '.' && path[i] != '[') seg.key.push_back(path[i++]);
    if (seg.key.empty())
      fail(SpecError::Code::kBadSweep, path, 0, "malformed sweep field path");
    while (i < path.size() && path[i] == '[') {
      ++i;
      std::string digits;
      while (i < path.size() && std::isdigit(static_cast<unsigned char>(path[i])))
        digits.push_back(path[i++]);
      if (digits.empty() || i >= path.size() || path[i] != ']')
        fail(SpecError::Code::kBadSweep, path, 0, "malformed sweep field path");
      ++i;  // ']'
      seg.indices.push_back(static_cast<std::size_t>(std::stoull(digits)));
    }
    segments.push_back(std::move(seg));
    if (i < path.size()) {
      if (path[i] != '.')
        fail(SpecError::Code::kBadSweep, path, 0, "malformed sweep field path");
      ++i;
      if (i == path.size())
        fail(SpecError::Code::kBadSweep, path, 0, "malformed sweep field path");
    }
  }
  if (segments.empty())
    fail(SpecError::Code::kBadSweep, path, 0, "empty sweep field path");
  return segments;
}

/// Write `value` at `path` inside `document`. Every intermediate segment
/// must already exist; the final segment may create a new object key (so an
/// axis can sweep a field the base spec leaves at its default), but array
/// indices always have to resolve.
void set_at_path(JsonValue& document, const std::string& path, const JsonValue& value) {
  const auto segments = parse_field_path(path);
  JsonValue* at = &document;
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const PathSegment& seg = segments[s];
    const bool last = s + 1 == segments.size();
    JsonValue* next = at->find(seg.key);
    if (!next) {
      if (!at->is_object())
        fail(SpecError::Code::kBadSweep, path, 0,
             "sweep path does not resolve (no object at '" + seg.key + "')");
      if (last && seg.indices.empty()) {
        at->set(seg.key, value);
        return;
      }
      fail(SpecError::Code::kBadSweep, path, 0,
           "sweep path does not resolve (missing field '" + seg.key + "')");
    }
    at = next;
    for (const std::size_t index : seg.indices) {
      if (!at->is_array() || index >= at->array.size())
        fail(SpecError::Code::kBadSweep, path, 0,
             "sweep path does not resolve (bad index " + std::to_string(index) + " under '" +
                 seg.key + "')");
      at = &at->array[index];
    }
  }
  *at = value;
}

/// Render an axis value for table/label use: numbers and booleans as their
/// literal, strings unquoted.
[[nodiscard]] std::string scalar_text(const JsonValue& v) {
  switch (v.type) {
    case JsonValue::Type::kString:
      return v.string;
    case JsonValue::Type::kNumber:
      return v.number;
    case JsonValue::Type::kBool:
      return v.boolean ? "true" : "false";
    default:
      return "null";
  }
}

}  // namespace

std::vector<SweepPoint> expand_scenario_spec(const JsonValue& document) {
  if (document.type != JsonValue::Type::kObject)
    fail(SpecError::Code::kWrongType, "", document.line, "expected a JSON object");

  const JsonValue* sweep_json = document.find("sweep");
  if (!sweep_json) {
    SweepPoint point;
    point.spec = parse_scenario_spec(document);
    return {std::move(point)};
  }
  SweepSpec sweep;
  decode(*sweep_json, "sweep", sweep);

  // The base document: everything except the sweep block.
  JsonValue base = JsonValue::make_object();
  base.line = document.line;
  for (const auto& [key, value] : document.object)
    if (key != "sweep") base.object.emplace_back(key, value);

  const std::size_t points = sweep.point_count();
  std::vector<SweepPoint> expanded;
  expanded.reserve(points);
  for (std::size_t p = 0; p < points; ++p) {
    // Map the flat point index to one index per axis: zip advances all axes
    // together; grid runs the last axis fastest (odometer order).
    std::vector<std::size_t> select(sweep.axes.size(), p);
    if (sweep.mode == SweepSpec::Mode::kGrid) {
      std::size_t rem = p;
      for (std::size_t a = sweep.axes.size(); a-- > 0;) {
        select[a] = rem % sweep.axes[a].values.size();
        rem /= sweep.axes[a].values.size();
      }
    }
    JsonValue point_doc = base;
    SweepPoint point;
    for (std::size_t a = 0; a < sweep.axes.size(); ++a) {
      const JsonValue& value = sweep.axes[a].values[select[a]];
      set_at_path(point_doc, sweep.axes[a].field, value);
      point.assignment.emplace_back(sweep.axes[a].field, scalar_text(value));
    }
    point.spec = parse_scenario_spec(point_doc);
    expanded.push_back(std::move(point));
  }
  return expanded;
}

std::vector<SweepPoint> expand_scenario_spec(std::string_view json_text) {
  return expand_scenario_spec(json_parse(json_text));
}

}  // namespace rss::scenario::spec
