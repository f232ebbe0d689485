// The one JSON codec for the artifacts this codebase writes and reads
// back: the JSONL trace, health.json, the flight dump, the Chrome trace,
// BENCH_perf.json / BENCH_history.jsonl and the machine-peak sidecar.
//
// Writing: each writer lays out its own object and sends every string
// through json_escape and every number through json_number. The number
// rule: an integral |v| < 9e15 prints with %.0f, so counters, byte
// totals and nanosecond sums stay exact; any other finite value prints
// with %.9g; NaN and infinities print as 0, which JSON cannot hold
// otherwise. (%.9g alone prints every integer below 1e9 the same way.)
//
// Reading: parse_json is a small tolerant reader. Inputs may be
// truncated or hand-edited, so it returns false instead of throwing and
// each caller decides how to degrade. to_integer is the one
// number -> integer conversion.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace fms::obs {

// False for NaN, infinities, fractions and values outside T's range,
// where a plain static_cast is undefined behaviour.
template <typename T>
bool to_integer(double v, T* out) {
  const double lo = static_cast<double>(std::numeric_limits<T>::min());
  const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (!(v >= lo && v < hi) || std::trunc(v) != v) return false;
  *out = static_cast<T>(v);
  return true;
}

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double num = 0.0;
  std::string str;
  std::vector<std::pair<std::string, JsonValue>> obj;  // insertion order
  std::vector<JsonValue> arr;

  const JsonValue* find(const std::string& key) const;
  double number_or(const std::string& key, double fallback) const;
  std::string string_or(const std::string& key,
                        const std::string& fallback) const;
  // Member `key` as a T: false when it is absent, not a number, or not
  // exactly a T (to_integer); *out is left alone then.
  template <typename T>
  bool integer(const std::string& key, T* out) const {
    const JsonValue* v = find(key);
    return v != nullptr && v->kind == Kind::kNumber && to_integer(v->num, out);
  }
};

// Parses one complete JSON document; false on malformed input, trailing
// content or nesting deeper than 64. \u escapes below 0x80 decode to
// their byte, others to '?', so json_escape's output reads back exactly.
bool parse_json(const std::string& text, JsonValue* out);

// Whole file into *out; false when `path` is empty or unreadable.
bool read_text_file(const std::string& path, std::string* out);

// Escapes a string for embedding in a JSON literal (quotes, backslashes,
// control characters).
std::string json_escape(const std::string& s);

// Appends `v` under the number rule above.
void json_number(std::string& out, double v);

// Appends a lifecycle trace/span id as 0x plus 16 lowercase hex digits
// (a JSON string body; the caller writes the quotes).
void append_hex_id(std::string& out, std::uint64_t id);

}  // namespace fms::obs
