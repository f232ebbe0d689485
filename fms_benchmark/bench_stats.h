// The benchmark's own arithmetic: medians, the tail-percentile
// rule, and the one-line results JSON (writer and reader). Kept apart from
// the workloads so `fms_benchmark --self-test` can check it in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

namespace fms::e2e {

// Median with even-count averaging; NaN for an empty input.
inline double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile: the smallest sample with at least p% of the
// samples at or below it.
inline std::size_t percentile_rank(std::size_t n, int p) {
  const std::size_t rank = (n * static_cast<std::size_t>(p) + 99) / 100;
  return std::max<std::size_t>(rank, 1);
}

// A tail percentile counts only when at least `min_beyond` samples lie
// beyond it; otherwise the highest percentile below the wanted one that
// does. percentile == 0 means no percentile >= 50 qualifies.
struct Tail {
  int percentile = 0;
  double value = 0.0;
  std::size_t beyond = 0;
};

inline Tail tail_percentile(std::vector<double> v, int wanted,
                            std::size_t min_beyond = 10) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (int p = wanted; p >= 50 && n > 0; --p) {
    const std::size_t rank = percentile_rank(n, p);
    if (n - rank >= min_beyond) return {p, v[rank - 1], n - rank};
  }
  return {};
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = false;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
};

// Formats a double so that strtod gives back the same value.
inline std::string exact_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Names and units are restricted to characters that need no JSON escaping
// ([A-Za-z0-9_./%-]); the writer does not escape.
inline std::string to_json(const Result& r) {
  std::string s = "{\"correct\": ";
  s += r.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + exact_number(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  return s;
}

// Reader for exactly the shape to_json writes (keys in any order,
// arbitrary whitespace). Returns nullopt on anything else.
class ResultReader {
 public:
  explicit ResultReader(const std::string& text) : s_(text) {}

  std::optional<Result> parse() {
    Result r;
    bool seen[4] = {false, false, false, false};
    if (!eat('{')) return std::nullopt;
    do {
      std::string key;
      if (!string(key) || !eat(':')) return std::nullopt;
      if (key == "correct" && !seen[0]) {
        seen[0] = true;
        if (!boolean(r.correct)) return std::nullopt;
      } else if (key == "attempted" && !seen[1]) {
        seen[1] = true;
        if (!integer(r.attempted)) return std::nullopt;
      } else if (key == "failed" && !seen[2]) {
        seen[2] = true;
        if (!integer(r.failed)) return std::nullopt;
      } else if (key == "metrics" && !seen[3]) {
        seen[3] = true;
        if (!metrics(r.metrics)) return std::nullopt;
      } else {
        return std::nullopt;
      }
    } while (eat(','));
    if (!eat('}')) return std::nullopt;
    skip_ws();
    if (pos_ != s_.size() || !(seen[0] && seen[1] && seen[2] && seen[3])) {
      return std::nullopt;
    }
    return r;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool string(std::string& out) {
    if (!eat('"')) return false;
    const std::size_t end = s_.find('"', pos_);
    if (end == std::string::npos) return false;
    out = s_.substr(pos_, end - pos_);
    if (out.find('\\') != std::string::npos) return false;
    pos_ = end + 1;
    return true;
  }
  bool number(double& out) {
    skip_ws();
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    out = std::strtod(begin, &end);
    if (end == begin) return false;
    pos_ += static_cast<std::size_t>(end - begin);
    return true;
  }
  bool integer(long& out) {
    double v = 0.0;
    if (!number(v) || std::floor(v) != v) return false;
    out = static_cast<long>(v);
    return true;
  }
  bool boolean(bool& out) {
    skip_ws();
    for (const bool b : {true, false}) {
      const std::string word = b ? "true" : "false";
      if (s_.compare(pos_, word.size(), word) == 0) {
        pos_ += word.size();
        out = b;
        return true;
      }
    }
    return false;
  }
  bool metrics(std::vector<Metric>& out) {
    if (!eat('{')) return false;
    if (eat('}')) return true;
    do {
      Metric m;
      bool has_value = false;
      bool has_unit = false;
      if (!string(m.name) || !eat(':') || !eat('{')) return false;
      do {
        std::string key;
        if (!string(key) || !eat(':')) return false;
        if (key == "value" && !has_value) {
          has_value = number(m.value);
          if (!has_value) return false;
        } else if (key == "unit" && !has_unit) {
          has_unit = string(m.unit);
          if (!has_unit) return false;
        } else {
          return false;
        }
      } while (eat(','));
      if (!eat('}') || !has_value || !has_unit) return false;
      out.push_back(std::move(m));
    } while (eat(','));
    return eat('}');
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

inline std::optional<Result> parse_result_json(const std::string& text) {
  return ResultReader(text).parse();
}

}  // namespace fms::e2e
