// Run specs: the "key=value,key=value" schedules a user hands the search
// (--fault-plan, --churn-plan), and the checked values behind every
// numeric command-line input.
//
// One walk per spec, as serialize.h has one walk per layout. A spec type
// lists its keys once, in a `template <class Io, class Self> static void
// keys(Io&, Self&)` that hands each field to `io(key, field, bound)`.
// parse_spec drives it with a reader that assigns the one field whose key
// an entry names; spec_string drives it with a writer that prints every
// key in walk order. A key that parses but never prints, or a bound only
// one path checks, cannot be spelled.
//
// Every value enters through spec_value, one checked vocabulary: an
// integer field takes an integer literal in its type's range (from_chars
// must consume it whole), so "2.7" and "1e10" are errors, not 2 and
// undefined behaviour; a std::uint64_t seed is exact over its whole range;
// a double is finite and consumes the whole value, in strtod's grammar;
// and every value lies in its key's Bound. Printing uses std::to_chars,
// exact and shortest, so parse_spec(spec_string(p)) equals p field for
// field.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

#include "src/common/check.h"

namespace fms {

// The range [lo, hi] a value must lie in, or (lo, hi] when lo_open.
// Bound{0} reads ">= 0".
struct Bound {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
};

inline constexpr Bound kUnit{0.0, 1.0};  // a probability or a fraction
inline constexpr Bound kPositive{0.0, std::numeric_limits<double>::infinity(),
                                 true};

// The exact, shortest decimal spelling of `v`.
template <class T>
std::string spec_format(T v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

inline std::string describe(const Bound& b) {
  const std::string lo = spec_format(b.lo);
  if (std::isinf(b.hi)) return (b.lo_open ? "> " : ">= ") + lo;
  return (b.lo_open ? "in (" : "in [") + lo + ", " + spec_format(b.hi) + "]";
}

// Parses `text`, the value of `key` in a `what` (e.g. "fault-plan"), as a
// T inside `bound`; throws CheckError naming the key otherwise.
template <class T>
T spec_value(std::string_view what, std::string_view key,
             std::string_view text, Bound bound = {}) {
  static_assert(std::is_same_v<T, double> || std::is_integral_v<T>);
  const std::string at = std::string(what) + " value for " +
                         std::string(key) + ": '" + std::string(text) + "'";
  T v{};
  if constexpr (std::is_floating_point_v<T>) {
    const std::string s(text);  // strtod needs a terminator
    char* end = nullptr;
    v = std::strtod(s.c_str(), &end);
    if (s.empty() || end != s.c_str() + s.size() || !std::isfinite(v)) {
      throw CheckError("bad " + at + " (expected a finite real number)");
    }
  } else {
    const char* last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), last, v);
    if (ec == std::errc::result_out_of_range) {
      throw CheckError("bad " + at + " (out of range)");
    }
    if (ec != std::errc() || ptr != last) {
      throw CheckError("bad " + at + " (expected an integer)");
    }
  }
  const auto x = static_cast<double>(v);
  if (!((bound.lo_open ? x > bound.lo : x >= bound.lo) && x <= bound.hi)) {
    throw CheckError(std::string(what) + " " + std::string(key) +
                     " must be " + describe(bound) + ", got " +
                     std::string(text));
  }
  return v;
}

// Parses comma-separated key=value entries over Spec's defaults; empty
// entries are skipped and a later entry overrides an earlier one.
template <class Spec>
Spec parse_spec(std::string_view what, std::string_view spec) {
  Spec out;
  while (!spec.empty()) {
    const std::string_view item = spec.substr(0, spec.find(','));
    spec.remove_prefix(std::min(spec.size(), item.size() + 1));
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw CheckError(std::string(what) + " entry '" + std::string(item) +
                       "' is not key=value");
    }
    const std::string_view key = item.substr(0, eq);
    bool found = false;
    auto reader = [&](std::string_view k, auto& field, Bound bound = {}) {
      if (k != key) return;
      field = spec_value<std::remove_reference_t<decltype(field)>>(
          what, key, item.substr(eq + 1), bound);
      found = true;
    };
    Spec::keys(reader, out);
    if (!found) {
      throw CheckError("unknown " + std::string(what) + " key '" +
                       std::string(key) + "'");
    }
  }
  return out;
}

template <class Spec>
std::string spec_string(const Spec& spec) {
  std::string out;
  auto writer = [&](std::string_view key, const auto& field, Bound = {}) {
    out.append(out.empty() ? "" : ",").append(key).append("=");
    out += spec_format(field);
  };
  Spec::keys(writer, spec);
  return out;
}

}  // namespace fms
