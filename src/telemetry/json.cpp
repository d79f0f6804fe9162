#include "telemetry/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace xlink::telemetry {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
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
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

// ---------------------------------------------------------------- writer

void JsonWriter::newline_indent() {
  if (indent_ <= 0) return;
  os_ << '\n';
  for (std::size_t i = 0; i < stack_.size(); ++i)
    for (int j = 0; j < indent_; ++j) os_ << ' ';
}

void JsonWriter::before_value() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (stack_.empty()) return;
  Level& top = stack_.back();
  if (top.has_items) os_ << ',';
  top.has_items = true;
  newline_indent();
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  os_ << '{';
  stack_.push_back({false, false});
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  const bool had = !stack_.empty() && stack_.back().has_items;
  stack_.pop_back();
  if (had) newline_indent();
  os_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  os_ << '[';
  stack_.push_back({true, false});
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  const bool had = !stack_.empty() && stack_.back().has_items;
  stack_.pop_back();
  if (had) newline_indent();
  os_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& k) {
  Level& top = stack_.back();
  if (top.has_items) os_ << ',';
  top.has_items = true;
  newline_indent();
  os_ << '"' << json_escape(k) << "\": ";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  before_value();
  os_ << '"' << json_escape(v) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) { return value(std::string(v)); }

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  os_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  if (!std::isfinite(v)) {  // JSON has no inf/nan
    os_ << "null";
    return *this;
  }
  // Integral doubles print as integers; others with enough digits to
  // round-trip the values the simulator reports.
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    os_ << buf;
  } else {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os_ << buf;
  }
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  os_ << v;
  return *this;
}

// ---------------------------------------------------------------- parser

const JsonValue* JsonValue::get(const std::string& k) const {
  if (kind != Kind::kObject) return nullptr;
  auto it = object.find(k);
  return it == object.end() ? nullptr : &it->second;
}

std::optional<std::uint64_t> JsonValue::as_u64() const {
  if (kind != Kind::kNumber || !(number >= 0.0 && number < 0x1p64) ||
      number != std::floor(number))
    return std::nullopt;
  return static_cast<std::uint64_t>(number);
}

std::uint64_t JsonValue::get_u64(const std::string& k,
                                 std::uint64_t def) const {
  const JsonValue* v = get(k);
  return v ? v->as_u64().value_or(def) : def;
}

double JsonValue::get_num(const std::string& k, double def) const {
  const JsonValue* v = get(k);
  return v && v->kind == Kind::kNumber ? v->number : def;
}

std::string JsonValue::get_str(const std::string& k,
                               const std::string& def) const {
  const JsonValue* v = get(k);
  return v && v->kind == Kind::kString ? v->str : def;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  bool eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return parse_string(out.str);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        return literal("null");
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    if (!eat('{')) return false;
    skip_ws();
    if (eat('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!eat(':')) return false;
      JsonValue v;
      if (!parse_value(v)) return false;
      out.object.emplace(std::move(key), std::move(v));
      skip_ws();
      if (eat(',')) continue;
      return eat('}');
    }
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    if (!eat('[')) return false;
    skip_ws();
    if (eat(']')) return true;
    while (true) {
      JsonValue v;
      if (!parse_value(v)) return false;
      out.array.push_back(std::move(v));
      skip_ws();
      if (eat(',')) continue;
      return eat(']');
    }
  }

  bool parse_string(std::string& out) {
    if (!eat('"')) return false;
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char e = s_[pos_++];
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
          if (pos_ + 4 > s_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              return false;
          }
          // Encode as UTF-8 (BMP only; surrogate pairs unsupported — the
          // exporter never emits them).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default: return false;
      }
    }
    return false;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    bool digits = false;
    auto take_digits = [&] {
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
        digits = true;
      }
    };
    take_digits();
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      take_digits();
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
      take_digits();
    }
    if (!digits) return false;
    out.kind = JsonValue::Kind::kNumber;
    out.number = std::strtod(s_.c_str() + start, nullptr);
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<JsonValue> parse_json(const std::string& text) {
  JsonValue v;
  Parser p(text);
  if (!p.parse(v)) return std::nullopt;
  return v;
}

}  // namespace xlink::telemetry
