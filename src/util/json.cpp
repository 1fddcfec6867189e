#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <ostream>

#include "util/check.h"

namespace dagsched {

bool JsonValue::as_bool() const {
  DS_CHECK_MSG(kind_ == Kind::kBool, "JSON value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  DS_CHECK_MSG(kind_ == Kind::kNumber, "JSON value is not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  DS_CHECK_MSG(kind_ == Kind::kString, "JSON value is not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  DS_CHECK_MSG(kind_ == Kind::kArray, "JSON value is not an array");
  return array_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  DS_CHECK_MSG(kind_ == Kind::kObject, "JSON value is not an object");
  return object_;
}

void JsonValue::push_back(JsonValue value) {
  DS_CHECK_MSG(kind_ == Kind::kArray, "push_back on non-array JSON value");
  array_.push_back(std::move(value));
}

std::size_t JsonValue::size() const {
  if (kind_ == Kind::kArray) return array_.size();
  if (kind_ == Kind::kObject) return object_.size();
  return 0;
}

void JsonValue::set(std::string key, JsonValue value) {
  DS_CHECK_MSG(kind_ == Kind::kObject, "set on non-object JSON value");
  for (auto& [existing, existing_value] : object_) {
    if (existing == key) {
      existing_value = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [existing, value] : object_) {
    if (existing == key) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* value = find(key);
  DS_CHECK_MSG(value != nullptr, "JSON object has no key '" << key << "'");
  return *value;
}

double num_at(const JsonValue& object, std::string_view key,
              double fallback) {
  const JsonValue* value = object.find(key);
  return value != nullptr && value->is_number() ? value->as_number()
                                                : fallback;
}

double nested_num(const JsonValue& object, std::string_view section,
                  std::string_view key, double fallback) {
  const JsonValue* group = object.find(section);
  return group != nullptr ? num_at(*group, key, fallback) : fallback;
}

std::string string_at(const JsonValue& object, std::string_view key,
                      std::string_view fallback) {
  const JsonValue* value = object.find(key);
  return value != nullptr && value->is_string() ? value->as_string()
                                                : std::string(fallback);
}

void append_json_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    // JSON has no Infinity/NaN; encode as null-adjacent sentinel strings is
    // worse than clamping -- emit a very large magnitude instead.
    out += value > 0 ? "1e308" : (value < 0 ? "-1e308" : "0");
    return;
  }
  char buffer[32];
  char* end = buffer;
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    // Integral: no exponent, no trailing ".0" -- keeps counters readable.
    // The integer conversion is exact below 1e15; -0.0 keeps its sign, as
    // printf's "%.0f" does.
    if (value == 0.0 && std::signbit(value)) *end++ = '-';
    end = std::to_chars(end, buffer + sizeof buffer,
                        static_cast<std::int64_t>(value))
              .ptr;
  } else {
    // Shortest representation that round-trips.
    end = std::to_chars(buffer, buffer + sizeof buffer, value).ptr;
  }
  out.append(buffer, end);
}

std::string json_number_to_string(double value) {
  std::string out;
  append_json_number(out, value);
  return out;
}

void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  // Copy runs of plain characters in one append; escape the rest.
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto ch = static_cast<unsigned char>(text[i]);
    if (ch >= 0x20 && ch != '"' && ch != '\\') continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        static const char* kHex = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[ch >> 4],
                               kHex[ch & 0xfu]};
        out.append(escape, sizeof escape);
      }
    }
  }
  out.append(text.data() + run, text.size() - run);
  out += '"';
}

namespace {

void append_newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void JsonValue::append_impl(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber:
      append_json_number(out, number_);
      return;
    case Kind::kString:
      append_json_string(out, string_);
      return;
    case Kind::kArray: {
      if (array_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        append_newline_indent(out, indent, depth + 1);
        array_[i].append_impl(out, indent, depth + 1);
      }
      append_newline_indent(out, indent, depth);
      out += ']';
      return;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        append_newline_indent(out, indent, depth + 1);
        append_json_string(out, object_[i].first);
        out += ':';
        if (indent > 0) out += ' ';
        object_[i].second.append_impl(out, indent, depth + 1);
      }
      append_newline_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

void JsonValue::write(std::ostream& out) const {
  const std::string text = dump();
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

void JsonValue::write_pretty(std::ostream& out, int indent) const {
  std::string text;
  append_impl(text, indent, 0);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

std::string JsonValue::dump() const {
  std::string text;
  append_impl(text, 0, 0);
  return text;
}

bool operator==(const JsonValue& lhs, const JsonValue& rhs) {
  if (lhs.kind_ != rhs.kind_) return false;
  switch (lhs.kind_) {
    case JsonValue::Kind::kNull: return true;
    case JsonValue::Kind::kBool: return lhs.bool_ == rhs.bool_;
    case JsonValue::Kind::kNumber: return lhs.number_ == rhs.number_;
    case JsonValue::Kind::kString: return lhs.string_ == rhs.string_;
    case JsonValue::Kind::kArray: return lhs.array_ == rhs.array_;
    case JsonValue::Kind::kObject: return lhs.object_ == rhs.object_;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonParseResult run() {
    JsonParseResult result;
    skip_ws();
    if (!parse_value(result.value)) {
      result.error = error_ + " at offset " + std::to_string(pos_);
      result.offset = pos_;
      return result;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      result.error = "trailing content at offset " + std::to_string(pos_);
      result.offset = pos_;
      return result;
    }
    result.ok = true;
    return result;
  }

 private:
  bool fail(const std::string& message) {
    if (error_.empty()) error_ = message;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_value(JsonValue& out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char ch = text_[pos_];
    switch (ch) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': return parse_string_value(out);
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          out = JsonValue(true);
          return true;
        }
        return fail("invalid literal");
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          out = JsonValue(false);
          return true;
        }
        return fail("invalid literal");
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          out = JsonValue();
          return true;
        }
        return fail("invalid literal");
      default:
        return parse_number(out);
    }
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    double value = 0.0;
    const auto result =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (result.ec != std::errc() || result.ptr != text_.data() + pos_) {
      return fail("malformed number");
    }
    out = JsonValue(value);
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    out.clear();
    while (pos_ < text_.size()) {
      const char ch = text_[pos_++];
      if (ch == '"') return true;
      if (ch != '\\') {
        out.push_back(ch);
        continue;
      }
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char hex = text_[pos_++];
            code <<= 4;
            if (hex >= '0' && hex <= '9') code |= static_cast<unsigned>(hex - '0');
            else if (hex >= 'a' && hex <= 'f') code |= static_cast<unsigned>(hex - 'a' + 10);
            else if (hex >= 'A' && hex <= 'F') code |= static_cast<unsigned>(hex - 'A' + 10);
            else return fail("invalid \\u escape");
          }
          // UTF-8 encode (BMP only; surrogate pairs unsupported).
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
          break;
        }
        default: return fail("invalid escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_string_value(JsonValue& out) {
    std::string text;
    if (!parse_string(text)) return false;
    out = JsonValue(std::move(text));
    return true;
  }

  bool parse_array(JsonValue& out) {
    consume('[');
    out = JsonValue::array();
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      JsonValue item;
      skip_ws();
      if (!parse_value(item)) return false;
      out.push_back(std::move(item));
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return fail("expected ',' or ']'");
    }
  }

  bool parse_object(JsonValue& out) {
    consume('{');
    out = JsonValue::object();
    skip_ws();
    if (consume('}')) return true;
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      out.set(std::move(key), std::move(value));
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

JsonParseResult json_parse(std::string_view text) {
  return Parser(text).run();
}

}  // namespace dagsched
