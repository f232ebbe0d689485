#include "src/obs/json.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace fms::obs {
namespace {

class Reader {
 public:
  explicit Reader(const std::string& text) : text_(text) {}

  bool parse(JsonValue* out) {
    if (!parse_value(out, 0)) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  // `depth` counts the enclosing objects and arrays.
  bool parse_value(JsonValue* out, int depth) {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return depth < kMaxDepth && parse_object(out, depth + 1);
    if (c == '[') return depth < kMaxDepth && parse_array(out, depth + 1);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return parse_string(&out->str);
    }
    if (c == 't') return literal("true", JsonValue::Kind::kBool, out);
    if (c == 'f') return literal("false", JsonValue::Kind::kBool, out);
    if (c == 'n') return literal("null", JsonValue::Kind::kNull, out);
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start) return false;
    pos_ += static_cast<std::size_t>(end - start);
    out->kind = JsonValue::Kind::kNumber;
    out->num = v;
    return true;
  }

  bool parse_string(std::string* out) {
    if (text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_++];
        switch (e) {
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            const unsigned long code =
                std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16);
            pos_ += 4;
            *out += code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default: *out += e;
        }
      } else {
        *out += c;
      }
    }
    return false;
  }

  bool literal(const char* word, JsonValue::Kind kind, JsonValue* out) {
    const std::size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    out->kind = kind;
    out->boolean = word[0] == 't';
    return true;
  }

  // Comma-separated items after the opening bracket, up to `close`;
  // `item` parses one.
  template <typename Item>
  bool parse_list(char close, Item item) {
    ++pos_;  // '{' or '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == close) {
      ++pos_;
      return true;
    }
    while (true) {
      if (!item()) return false;
      skip_ws();
      if (pos_ >= text_.size()) return false;
      const char c = text_[pos_++];
      if (c == close) return true;
      if (c != ',') return false;
    }
  }

  bool parse_object(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    return parse_list('}', [&] {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || !parse_string(&key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_++] != ':') return false;
      out->obj.emplace_back(std::move(key), JsonValue{});
      return parse_value(&out->obj.back().second, depth);
    });
  }

  bool parse_array(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    return parse_list(']', [&] {
      out->arr.emplace_back();
      return parse_value(&out->arr.back(), depth);
    });
  }

  // Bounded so a hostile nest cannot overflow the stack; this codebase's
  // artifacts nest at most 5 deep.
  static constexpr int kMaxDepth = 64;

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind == Kind::kNumber ? v->num : fallback;
}

std::string JsonValue::string_or(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind == Kind::kString ? v->str : fallback;
}

bool parse_json(const std::string& text, JsonValue* out) {
  Reader reader(text);
  return reader.parse(out);
}

bool read_text_file(const std::string& path, std::string* out) {
  if (path.empty()) return false;
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void json_number(std::string& out, double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  if (std::fabs(v) < 9.0e15 && std::trunc(v) == v) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  out += buf;
}

void append_hex_id(std::string& out, std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(id));
  out += buf;
}

}  // namespace fms::obs
