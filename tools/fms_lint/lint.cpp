#include "tools/fms_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <string>
#include <vector>

#include "tools/source_scan/source_scan.h"

namespace fms::lint {
namespace {

using source_scan::has_token;
using source_scan::ident_end;
using source_scan::is_ident_char;
using source_scan::Line;
using source_scan::read_file;
using source_scan::scan;
using source_scan::skip_space;
using source_scan::source_files;

constexpr const char* kRuleRng = "unseeded-rng";
constexpr const char* kRuleWallClock = "wall-clock";
constexpr const char* kRuleUnordered = "unordered-container";
constexpr const char* kRuleFloatEq = "float-eq";
constexpr const char* kRulePragmaOnce = "pragma-once";
constexpr const char* kRuleBareThrow = "bare-throw";
constexpr const char* kRuleNarrowingAccum = "narrowing-accum";

bool path_ends_with(const std::string& path, const std::string& suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Aggregation / serialization context: the code whose container iteration
// order feeds checkpoints, payloads, or metrics output.
bool ordering_sensitive(const std::string& path) {
  for (const char* dir :
       {"/core/", "/fed/", "/dc/", "/fault/", "/obs/", "/agg/"}) {
    if (path.find(dir) != std::string::npos) return true;
  }
  const std::size_t slash = path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  return base.find("serialize") != std::string::npos ||
         base.find("checkpoint") != std::string::npos;
}

// End of the decimal literal at `pos`, or `pos` when none starts there:
//   (digits [. digits*] | . digits) [(e|E) [+|-] digits] [f|F|l|L]*
std::size_t decimal_end(const std::string& s, std::size_t pos) {
  auto digits_end = [&s](std::size_t p) {
    while (p < s.size() && std::isdigit(static_cast<unsigned char>(s[p]))) {
      ++p;
    }
    return p;
  };
  std::size_t end = digits_end(pos);
  if (end < s.size() && s[end] == '.') {
    const std::size_t frac_end = digits_end(end + 1);
    if (end > pos || frac_end > end + 1) end = frac_end;
  }
  if (end == pos) return pos;
  if (end < s.size() && (s[end] == 'e' || s[end] == 'E')) {
    std::size_t exp = end + 1;
    if (exp < s.size() && (s[exp] == '+' || s[exp] == '-')) ++exp;
    if (digits_end(exp) > exp) end = digits_end(exp);
  }
  while (end < s.size() && (s[end] == 'f' || s[end] == 'F' ||
                            s[end] == 'l' || s[end] == 'L')) {
    ++end;
  }
  return end;
}

// A decimal literal may start at `pos` only at a token boundary.
bool literal_boundary(const std::string& s, std::size_t pos) {
  return pos == 0 || (!is_ident_char(s[pos - 1]) && s[pos - 1] != '.');
}

bool is_eq_op(const std::string& s, std::size_t pos) {
  return pos + 1 < s.size() && (s[pos] == '=' || s[pos] == '!') &&
         s[pos + 1] == '=';
}

// ==/!= where either operand is a floating-point literal. Pure textual
// heuristic: identifier-vs-identifier comparisons pass (types unknown),
// which keeps the rule quiet outside the obviously wrong cases. Integer
// literals (`count() == 0`, `x == 0x10`) stay legal.
bool float_equality(const std::string& code) {
  auto floaty = [&code](std::size_t b, std::size_t e) {
    return code.substr(b, e - b).find_first_of(".eEfF") != std::string::npos;
  };
  for (std::size_t op = 0; op < code.size(); ++op) {
    // `x == 1.5`: not the tail of <=, >=, +=, &&= and the like.
    if (!is_eq_op(code, op) ||
        (op > 0 && std::string("<>!=&|+-*/%^").find(code[op - 1]) !=
                       std::string::npos)) {
      continue;
    }
    std::size_t b = skip_space(code, op + 2);
    if (b < code.size() && (code[b] == '+' || code[b] == '-')) ++b;
    const std::size_t e = decimal_end(code, b);
    if (e > b && floaty(b, e) &&
        (e == code.size() ||
         (!is_ident_char(code[e]) && code[e] != '.' && code[e] != '='))) {
      return true;
    }
  }
  for (std::size_t b = 0; b < code.size(); ++b) {
    // `1.5 == x`: the literal, then the operator (not `===`).
    if (!literal_boundary(code, b)) continue;
    const std::size_t e = decimal_end(code, b);
    if (e == b) continue;
    const std::size_t op = skip_space(code, e);
    if (is_eq_op(code, op) && floaty(b, e) &&
        (op + 2 == code.size() || code[op + 2] != '=')) {
      return true;
    }
  }
  return false;
}

void add(std::vector<Finding>* out, const std::string& path, int line,
         const char* rule, const std::string& message) {
  out->push_back(Finding{path, line, rule, message});
}

// Accumulation-loop context for narrowing-accum: src/agg and src/tensor
// hold the hot reduction kernels whose per-element precision the
// aggregation bounds depend on.
bool accumulation_hot_path(const std::string& path) {
  return path.find("/agg/") != std::string::npos ||
         path.find("/tensor/") != std::string::npos;
}

bool rhs_has_floating_literal(const std::string& rhs) {
  for (std::size_t b = 0; b < rhs.size(); ++b) {
    if (!literal_boundary(rhs, b)) continue;
    const std::size_t e = decimal_end(rhs, b);
    if (rhs.find('.', b) < e) return true;
  }
  return false;
}

// Adds every `float x =` / `double x {` / `int x;` style declaration on
// `code` to `decl_type` (name -> type; the first declaration wins).
void collect_declarations(const std::string& code,
                          std::map<std::string, std::string>* decl_type) {
  for (std::size_t b = 0; b < code.size(); ++b) {
    if (!is_ident_char(code[b])) continue;
    const std::size_t e = ident_end(code, b);
    const std::string type = code.substr(b, e - b);
    const bool after_scope_or_template =
        b > 0 && (code[b - 1] == ':' || code[b - 1] == '<');
    b = e;
    if ((type != "float" && type != "double" && type != "int") ||
        after_scope_or_template || e == code.size() ||
        std::isspace(static_cast<unsigned char>(code[e])) == 0) {
      continue;
    }
    const std::size_t name = skip_space(code, e);
    const std::size_t name_end = ident_end(code, name);
    if (name_end == name ||
        std::isdigit(static_cast<unsigned char>(code[name])) != 0) {
      continue;
    }
    const std::size_t next = skip_space(code, name_end);
    if (next < code.size() &&
        (code[next] == '=' || code[next] == '{' || code[next] == ';')) {
      decl_type->emplace(code.substr(name, name_end - name), type);
    }
  }
}

// True when `code` contains a +=/-= whose value is narrowed per element:
// an explicit static_cast<float>/static_cast<int> on the RHS, a float
// accumulator fed a static_cast<double> expression (the widened product
// is rounded back every iteration), or an int accumulator fed a floating
// literal. `decl_type` maps identifiers to their textually declared type
// within this file.
bool narrowing_accumulation(const std::string& code,
                            const std::map<std::string, std::string>& decl_type) {
  for (const char* op : {"+=", "-="}) {
    std::size_t pos = code.find(op);
    while (pos != std::string::npos) {
      std::size_t e = pos;
      while (e > 0 &&
             std::isspace(static_cast<unsigned char>(code[e - 1])) != 0) {
        --e;
      }
      std::size_t b = e;
      while (b > 0 && is_ident_char(code[b - 1])) --b;
      const std::string lhs = code.substr(b, e - b);
      const std::string rhs = code.substr(pos + 2);
      if (rhs.find("static_cast<float>(") != std::string::npos ||
          rhs.find("static_cast<int>(") != std::string::npos) {
        return true;
      }
      const auto it = decl_type.find(lhs);
      if (it != decl_type.end()) {
        if (it->second == "float" &&
            rhs.find("static_cast<double>(") != std::string::npos) {
          return true;
        }
        if (it->second == "int" && rhs_has_floating_literal(rhs)) {
          return true;
        }
      }
      pos = code.find(op, pos + 2);
    }
  }
  return false;
}

}  // namespace

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules = {
      {kRuleRng,
       "std::random_device / rand() / srand() outside src/common/rng.h "
       "(breaks seeded reproducibility)"},
      {kRuleWallClock,
       "std::chrono::system_clock / time() / gettimeofday() outside "
       "src/common/stopwatch.h (results must not depend on wall-clock)"},
      {kRuleUnordered,
       "std::unordered_{map,set} in aggregation/serialization code "
       "(iteration order breaks bit-identical resume)"},
      {kRuleFloatEq,
       "==/!= against a floating-point literal (use a tolerance)"},
      {kRulePragmaOnce, "header missing #pragma once"},
      {kRuleBareThrow,
       "throw std::runtime_error/logic_error (use FMS_CHECK / "
       "fms::CheckError)"},
      {kRuleNarrowingAccum,
       "float/int narrowing inside an accumulation loop in src/agg or "
       "src/tensor (accumulate wide, narrow once outside the loop)"},
  };
  return kRules;
}

std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& contents) {
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');

  const bool is_header = path_ends_with(p, ".h") || path_ends_with(p, ".hpp");
  const bool rng_sanctioned = path_ends_with(p, "src/common/rng.h");
  const bool clock_sanctioned = path_ends_with(p, "src/common/stopwatch.h");
  const bool check_sanctioned = path_ends_with(p, "src/common/check.h");
  const bool unordered_applies = ordering_sensitive(p);
  const bool narrowing_applies = accumulation_hot_path(p);

  const std::vector<Line> lines = scan(contents, "fms-lint");
  std::vector<Finding> out;

  // Textual declaration map for narrowing-accum: the declared type of
  // every `float x = ...` / `int x = ...` style local in the file.
  std::map<std::string, std::string> decl_type;
  if (narrowing_applies) {
    for (const Line& ln : lines) collect_declarations(ln.code, &decl_type);
  }

  bool saw_pragma_once = false;
  bool pragma_once_allowed = false;
  for (const Line& ln : lines) {
    std::string trimmed = ln.raw;
    trimmed.erase(0, trimmed.find_first_not_of(" \t"));
    if (trimmed.rfind("#pragma once", 0) == 0) saw_pragma_once = true;
    if (ln.allowed.count(kRulePragmaOnce) != 0) pragma_once_allowed = true;
  }

  // Loop-body tracking for narrowing-accum: a stack of the brace depths
  // at which for/while bodies opened, plus a pending flag between a loop
  // header and its '{' (or its single-statement body).
  int brace_depth = 0;
  int paren_depth = 0;
  bool loop_pending = false;
  std::vector<int> loop_open_depth;

  for (std::size_t idx = 0; idx < lines.size(); ++idx) {
    const Line& ln = lines[idx];
    const std::string& code = ln.code;
    const int lineno = static_cast<int>(idx) + 1;
    if (code.empty()) continue;
    auto allowed = [&](const char* rule) {
      return ln.allowed.count(rule) != 0;
    };

    if (!rng_sanctioned && !allowed(kRuleRng)) {
      if (has_token(code, "random_device", /*call_form=*/false)) {
        add(&out, p, lineno, kRuleRng,
            "std::random_device is non-deterministic; take an fms::Rng& "
            "(src/common/rng.h) instead");
      } else if (has_token(code, "rand", true) ||
                 has_token(code, "srand", true) ||
                 has_token(code, "rand_r", true)) {
        add(&out, p, lineno, kRuleRng,
            "C rand()/srand() uses hidden global state; take an fms::Rng& "
            "(src/common/rng.h) instead");
      }
    }
    if (!clock_sanctioned && !allowed(kRuleWallClock)) {
      if (has_token(code, "system_clock", false)) {
        add(&out, p, lineno, kRuleWallClock,
            "system_clock is wall-clock; use fms::Stopwatch "
            "(src/common/stopwatch.h) or simulated time");
      } else if (has_token(code, "time", true) ||
                 has_token(code, "gettimeofday", true) ||
                 has_token(code, "localtime", true) ||
                 has_token(code, "gmtime", true) ||
                 has_token(code, "ctime", true)) {
        add(&out, p, lineno, kRuleWallClock,
            "C time API reads wall-clock; use fms::Stopwatch "
            "(src/common/stopwatch.h) or simulated time");
      }
    }
    if (unordered_applies && !allowed(kRuleUnordered)) {
      if (has_token(code, "unordered_map", false) ||
          has_token(code, "unordered_set", false) ||
          has_token(code, "unordered_multimap", false) ||
          has_token(code, "unordered_multiset", false)) {
        add(&out, p, lineno, kRuleUnordered,
            "unordered container in aggregation/serialization code: "
            "iteration order is implementation-defined and breaks "
            "bit-identical resume; use std::map or a sorted vector");
      }
    }
    if (!allowed(kRuleFloatEq) && float_equality(code)) {
      add(&out, p, lineno, kRuleFloatEq,
          "exact floating-point comparison; compare against a tolerance "
          "(or annotate an intentional exact-zero/sentinel check)");
    }
    if (!check_sanctioned && !allowed(kRuleBareThrow)) {
      if (has_token(code, "throw", false) &&
          (code.find("std::runtime_error") != std::string::npos ||
           code.find("std::logic_error") != std::string::npos)) {
        add(&out, p, lineno, kRuleBareThrow,
            "bare throw of a std exception; use FMS_CHECK/FMS_CHECK_MSG or "
            "throw fms::CheckError so tests and callers can match on it");
      }
    }
    if (narrowing_applies) {
      const bool opens_loop = has_token(code, "for", /*call_form=*/true) ||
                              has_token(code, "while", /*call_form=*/true);
      const bool in_loop =
          !loop_open_depth.empty() || loop_pending || opens_loop;
      if (in_loop && !allowed(kRuleNarrowingAccum) &&
          narrowing_accumulation(code, decl_type)) {
        add(&out, p, lineno, kRuleNarrowingAccum,
            "float/int narrowing inside an accumulation loop: accumulate "
            "in double (or keep the element type wide) and narrow once "
            "after the loop");
      }
      if (opens_loop) loop_pending = true;
      for (const char ch : code) {
        if (ch == '(') {
          ++paren_depth;
        } else if (ch == ')') {
          if (paren_depth > 0) --paren_depth;
        } else if (ch == '{') {
          ++brace_depth;
          if (loop_pending) {
            loop_open_depth.push_back(brace_depth);
            loop_pending = false;
          }
        } else if (ch == '}') {
          if (!loop_open_depth.empty() &&
              loop_open_depth.back() == brace_depth) {
            loop_open_depth.pop_back();
          }
          if (brace_depth > 0) --brace_depth;
        } else if (ch == ';' && paren_depth == 0) {
          // End of a braceless single-statement loop body.
          loop_pending = false;
        }
      }
    }
  }

  if (is_header && !saw_pragma_once && !pragma_once_allowed) {
    add(&out, p, 1, kRulePragmaOnce, "header is missing #pragma once");
  }
  return out;
}

std::vector<Finding> lint_file(const std::string& path) {
  return lint_source(path, read_file(path, "fms_lint"));
}

std::vector<Finding> lint_tree(const std::vector<std::string>& roots) {
  std::vector<Finding> out;
  for (const std::string& f : source_files(roots, "fms_lint")) {
    std::vector<Finding> found = lint_file(f);
    out.insert(out.end(), found.begin(), found.end());
  }
  return out;
}

}  // namespace fms::lint
