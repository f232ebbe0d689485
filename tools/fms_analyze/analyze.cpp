#include "tools/fms_analyze/analyze.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/source_scan/source_scan.h"

namespace fms::analyze {
namespace {

using source_scan::ident_end;
using source_scan::is_ident_char;
using source_scan::Line;
using source_scan::read_file;
using source_scan::scan;
using source_scan::skip_space;
using source_scan::source_files;

constexpr const char* kCheckSaltCollision = "salt-collision";
constexpr const char* kCheckSaltUnregistered = "salt-unregistered";
constexpr const char* kCheckSaltStale = "salt-stale";
constexpr const char* kCheckCkptAsymmetry = "checkpoint-asymmetry";
constexpr const char* kCheckMetricUndoc = "metric-undocumented";
constexpr const char* kCheckMetricStale = "metric-stale";
constexpr const char* kCheckDetectorUndoc = "detector-undocumented";
constexpr const char* kCheckDetectorStale = "detector-stale";

struct ScannedFile {
  std::string path;  // '/'-normalized
  std::vector<Line> lines;
};

bool allowed(const ScannedFile& file, int line, const char* check) {
  const std::size_t idx = static_cast<std::size_t>(line - 1);
  return idx < file.lines.size() && file.lines[idx].allowed.count(check) != 0;
}

// src/-scoped checks (metric emission, checkpoint pairs) apply to paths
// with a src/ component — the library proper, not tests or tools.
bool under_src(const std::string& path) {
  return path.rfind("src/", 0) == 0 || path.find("/src/") != std::string::npos;
}

void add(std::vector<Finding>* out, const std::string& path, int line,
         const char* check, const std::string& message) {
  out->push_back(Finding{path, line, check, message});
}

std::string hex(unsigned long long v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llX", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Check 1: RNG salt registry.

struct SaltDef {
  std::string ident;
  unsigned long long value = 0;
  std::string path;
  int line = 0;
};

// `kSalt<name> = 0x<hex>` definitions (digit separators allowed).
std::vector<SaltDef> extract_salts(const ScannedFile& file) {
  std::vector<SaltDef> out;
  for (std::size_t idx = 0; idx < file.lines.size(); ++idx) {
    const std::string& code = file.lines[idx].code;
    for (std::size_t pos = code.find("kSalt"); pos != std::string::npos;
         pos = code.find("kSalt", pos + 1)) {
      if (pos > 0 && is_ident_char(code[pos - 1])) continue;
      const std::size_t name_end = ident_end(code, pos);
      std::size_t p = skip_space(code, name_end);
      if (p >= code.size() || code[p] != '=') continue;
      p = skip_space(code, p + 1);
      if (code.compare(p, 2, "0x") != 0 && code.compare(p, 2, "0X") != 0) {
        continue;
      }
      std::string digits;
      for (p += 2; p < code.size() &&
                   (std::isxdigit(static_cast<unsigned char>(code[p])) != 0 ||
                    code[p] == '\'');
           ++p) {
        if (code[p] != '\'') digits.push_back(code[p]);
      }
      if (digits.empty()) continue;
      SaltDef def;
      def.ident = code.substr(pos, name_end - pos);
      def.value = std::stoull(digits, nullptr, 16);
      def.path = file.path;
      def.line = static_cast<int>(idx) + 1;
      out.push_back(std::move(def));
    }
  }
  return out;
}

struct RegistryEntry {
  unsigned long long value = 0;
  std::string ident;
  std::string file;  // informational
  int line = 0;
};

std::vector<RegistryEntry> parse_registry(const std::string& text) {
  std::vector<RegistryEntry> out;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    std::istringstream fields(line);
    std::string value_s, ident, file;
    if (!(fields >> value_s >> ident)) continue;
    fields >> file;  // optional
    RegistryEntry e;
    std::string digits = value_s;
    if (digits.rfind("0x", 0) == 0 || digits.rfind("0X", 0) == 0) {
      digits = digits.substr(2);
    }
    try {
      e.value = std::stoull(digits, nullptr, 16);
    } catch (...) {
      continue;  // malformed row: ignore rather than crash the gate
    }
    e.ident = ident;
    e.file = file;
    e.line = lineno;
    out.push_back(std::move(e));
  }
  return out;
}

void check_salts(const std::vector<ScannedFile>& files,
                 const std::string& registry_text,
                 const std::string& registry_path,
                 std::vector<Finding>* out) {
  std::vector<std::pair<SaltDef, const ScannedFile*>> salts;
  for (const ScannedFile& f : files) {
    for (SaltDef& d : extract_salts(f)) {
      salts.emplace_back(std::move(d), &f);
    }
  }
  std::sort(salts.begin(), salts.end(),
            [](const auto& a, const auto& b) {
              return std::tie(a.first.path, a.first.line) <
                     std::tie(b.first.path, b.first.line);
            });

  // Uniqueness across the codebase: value -> first definition seen.
  std::map<unsigned long long, const SaltDef*> first_by_value;
  for (const auto& [def, file] : salts) {
    auto [it, inserted] = first_by_value.emplace(def.value, &def);
    if (!inserted && it->second->ident != def.ident &&
        !allowed(*file, def.line, kCheckSaltCollision)) {
      add(out, def.path, def.line, kCheckSaltCollision,
          def.ident + " = " + hex(def.value) + " collides with " +
              it->second->ident + " (" + it->second->path + ":" +
              std::to_string(it->second->line) +
              "); every decision stream needs its own salt");
    }
  }

  const std::vector<RegistryEntry> registry = parse_registry(registry_text);
  std::map<std::string, const RegistryEntry*> reg_by_ident;
  std::map<unsigned long long, const RegistryEntry*> reg_by_value;
  for (const RegistryEntry& e : registry) {
    reg_by_ident.emplace(e.ident, &e);
    auto [it, inserted] = reg_by_value.emplace(e.value, &e);
    if (!inserted && it->second->ident != e.ident) {
      add(out, registry_path, e.line, kCheckSaltCollision,
          "registry assigns " + hex(e.value) + " to both " +
              it->second->ident + " and " + e.ident);
    }
  }

  // Code -> registry: every constant must be registered with its value.
  for (const auto& [def, file] : salts) {
    if (allowed(*file, def.line, kCheckSaltUnregistered)) continue;
    const auto it = reg_by_ident.find(def.ident);
    if (it == reg_by_ident.end()) {
      add(out, def.path, def.line, kCheckSaltUnregistered,
          def.ident + " = " + hex(def.value) + " is not in " + registry_path +
              "; add a row before introducing a new decision stream");
    } else if (it->second->value != def.value) {
      add(out, def.path, def.line, kCheckSaltUnregistered,
          def.ident + " = " + hex(def.value) + " but " + registry_path +
              ":" + std::to_string(it->second->line) + " records " +
              hex(it->second->value));
    }
  }

  // Registry -> code: rows must not outlive their constants.
  std::set<std::string> code_idents;
  for (const auto& [def, file] : salts) code_idents.insert(def.ident);
  for (const RegistryEntry& e : registry) {
    if (code_idents.count(e.ident) == 0) {
      add(out, registry_path, e.line, kCheckSaltStale,
          e.ident + " is registered but no source file defines it; "
                    "remove the row (or restore the constant)");
    }
  }
}

// ---------------------------------------------------------------------------
// Check 2: checkpoint symmetry.

struct OpRec {
  std::string kind;  // "scalar" | "vector" | "string" | "nested <obj>"
  int line = 0;
};

struct FuncDef {
  std::string qual;  // "Class::" or ""
  std::string name;
  int line = 0;  // definition line
  bool suppressed = false;
  std::vector<OpRec> write_ops;
  std::vector<OpRec> read_ops;
};

// Identifier immediately before `pos` (which points at '.'), for nested
// serialize/restore receiver names.
std::string ident_before(const std::string& code, std::size_t pos) {
  std::size_t e = pos;
  std::size_t b = e;
  while (b > 0 && is_ident_char(code[b - 1])) --b;
  return code.substr(b, e - b);
}

void extract_ops(const ScannedFile& file, int lineno, FuncDef* fn) {
  if (allowed(file, lineno, kCheckCkptAsymmetry)) return;
  const std::string& code = file.lines[static_cast<std::size_t>(lineno - 1)].code;
  struct Pat {
    const char* text;
    const char* kind;
    bool write;
    bool nested;
  };
  static const Pat kPats[] = {
      {".write_string(", "string", true, false},
      {".write_vector(", "vector", true, false},
      {".write(", "scalar", true, false},
      {".read_string(", "string", false, false},
      {".read_vector<", "vector", false, false},
      {".read<", "scalar", false, false},
      {".serialize(", "nested", true, true},
      {".deserialize(", "nested", false, true},
      {".restore(", "nested", false, true},
  };
  // Left-to-right merge of every pattern occurrence on the line.
  std::vector<std::pair<std::size_t, const Pat*>> hits;
  for (const Pat& p : kPats) {
    const std::string pat(p.text);
    std::size_t pos = code.find(pat);
    while (pos != std::string::npos) {
      hits.emplace_back(pos, &p);
      pos = code.find(pat, pos + 1);
    }
  }
  std::sort(hits.begin(), hits.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [pos, p] : hits) {
    OpRec op;
    op.line = lineno;
    if (p->nested) {
      const std::string obj = ident_before(code, pos);
      if (obj.empty()) continue;  // ctor-style or expression; skip
      // Only `obj.serialize(w)` / `obj.restore(r)` — a single bare
      // identifier argument (the writer/reader handle) — is a nested
      // checkpoint op. `moving_.restore(vals, sum)` and `u.serialize()`
      // are ordinary member calls.
      std::size_t a = code.find('(', pos) + 1;
      std::size_t b = a;
      while (b < code.size() && is_ident_char(code[b])) ++b;
      if (b == a || b >= code.size() || code[b] != ')') continue;
      op.kind = std::string("nested ") + obj;
    } else {
      op.kind = p->kind;
    }
    if (p->write) {
      fn->write_ops.push_back(std::move(op));
    } else {
      fn->read_ops.push_back(std::move(op));
    }
  }
}

bool checkpoint_name(const std::string& name) {
  return name.rfind("serialize", 0) == 0 ||
         name.rfind("deserialize", 0) == 0 ||
         name.rfind("restore", 0) == 0 || name == "checkpoint";
}

// Finds serialize/deserialize/restore/checkpoint function *definitions*
// and their body op sequences. Returns defs in file order.
std::vector<FuncDef> extract_functions(const ScannedFile& file) {
  std::vector<FuncDef> out;
  const std::size_t n = file.lines.size();
  for (std::size_t idx = 0; idx < n; ++idx) {
    const std::string& code = file.lines[idx].code;
    for (std::size_t b = 0; b < code.size(); ++b) {
      if (!is_ident_char(code[b])) continue;
      const std::size_t name_end = ident_end(code, b);
      const std::string name = code.substr(b, name_end - b);
      const std::size_t name_pos = b;
      b = name_end;
      const std::size_t open = skip_space(code, name_end);
      if (!checkpoint_name(name) || open >= code.size() || code[open] != '(') {
        continue;
      }
      // Qualifier: the `A::B::` chain right before the name.
      std::size_t start = name_pos;
      while (start >= 2 && code[start - 1] == ':' && code[start - 2] == ':') {
        std::size_t scope = start - 2;
        while (scope > 0 && is_ident_char(code[scope - 1])) --scope;
        if (scope == start - 2 ||
            std::isdigit(static_cast<unsigned char>(code[scope])) != 0) {
          break;
        }
        start = scope;
      }
      // A definition is not preceded by an identifier char (that would be
      // a longer name), '.', ':' or '->' (member calls).
      if (start > 0) {
        const char before = code[start - 1];
        if (is_ident_char(before) || before == '.' || before == ':') continue;
        if (before == '>' && start > 1 && code[start - 2] == '-') continue;
      }
      // Walk from the opening paren across lines: balance parens, then
      // the next '{' starts a body, a ';' means declaration/call — skip.
      std::size_t l = idx;
      std::size_t c = open;
      int paren = 0;
      bool is_def = false;
      std::size_t body_line = 0, body_col = 0;
      for (std::size_t steps = 0; l < n && steps < 4000; ++steps) {
        const std::string& lc = file.lines[l].code;
        if (c >= lc.size()) {
          ++l;
          c = 0;
          continue;
        }
        const char ch = lc[c];
        if (ch == '(') {
          ++paren;
        } else if (ch == ')') {
          --paren;
        } else if (paren == 0 && ch == '{') {
          is_def = true;
          body_line = l;
          body_col = c;
          break;
        } else if (paren == 0 && (ch == ';' || ch == '=')) {
          break;
        }
        ++c;
      }
      if (!is_def) continue;

      FuncDef fn;
      fn.qual = code.substr(start, name_pos - start);
      fn.name = name;
      fn.line = static_cast<int>(idx) + 1;
      fn.suppressed = allowed(file, fn.line, kCheckCkptAsymmetry);

      // Body: from the '{' to its matching '}'.
      int depth = 0;
      std::size_t bl = body_line, bc = body_col;
      std::size_t end_line = n - 1;
      std::set<std::size_t> body_lines;
      bool closed = false;
      while (bl < n && !closed) {
        const std::string& lc = file.lines[bl].code;
        for (; bc < lc.size(); ++bc) {
          const char ch = lc[bc];
          if (ch == '{') {
            ++depth;
          } else if (ch == '}') {
            --depth;
            if (depth == 0) {
              end_line = bl;
              closed = true;
              break;
            }
          }
        }
        body_lines.insert(bl);
        if (!closed) {
          ++bl;
          bc = 0;
        }
      }
      for (const std::size_t body : body_lines) {
        extract_ops(file, static_cast<int>(body) + 1, &fn);
      }
      out.push_back(std::move(fn));
      // Resume scanning after the body (nested candidates inside the
      // body were already consumed as ops, not definitions).
      idx = end_line;
      break;
    }
  }
  return out;
}

std::string partner_name(const std::string& name, int variant) {
  if (name == "checkpoint") {
    return variant == 0 ? "restore" : "";
  }
  if (name.rfind("serialize", 0) == 0) {
    const std::string tail = name.substr(std::string("serialize").size());
    return (variant == 0 ? "deserialize" : "restore") + tail;
  }
  return "";
}

void check_checkpoints(const std::vector<ScannedFile>& files,
                       std::vector<Finding>* out) {
  for (const ScannedFile& file : files) {
    if (!under_src(file.path)) continue;
    const std::vector<FuncDef> fns = extract_functions(file);
    std::map<std::string, const FuncDef*> by_name;
    for (const FuncDef& fn : fns) by_name.emplace(fn.qual + fn.name, &fn);
    for (const FuncDef& fn : fns) {
      const FuncDef* partner = nullptr;
      for (int variant = 0; variant < 2 && partner == nullptr; ++variant) {
        const std::string pname = partner_name(fn.name, variant);
        if (pname.empty()) continue;
        const auto it = by_name.find(fn.qual + pname);
        if (it != by_name.end()) partner = it->second;
      }
      if (partner == nullptr) continue;
      if (fn.suppressed || partner->suppressed) continue;
      const std::vector<OpRec>& w = fn.write_ops;
      const std::vector<OpRec>& r = partner->read_ops;
      const std::size_t common = std::min(w.size(), r.size());
      std::size_t diverge = common;
      for (std::size_t i = 0; i < common; ++i) {
        if (w[i].kind != r[i].kind) {
          diverge = i;
          break;
        }
      }
      if (diverge < common) {
        add(out, file.path, r[diverge].line, kCheckCkptAsymmetry,
            fn.qual + fn.name + " writes op " + std::to_string(diverge + 1) +
                " as [" + w[diverge].kind + "] (line " +
                std::to_string(w[diverge].line) + ") but " + partner->qual +
                partner->name + " reads [" + r[diverge].kind + "]");
      } else if (w.size() != r.size()) {
        const bool extra_writes = w.size() > r.size();
        const OpRec& odd = extra_writes ? w[common] : r[common];
        add(out, file.path, odd.line, kCheckCkptAsymmetry,
            fn.qual + fn.name + " issues " + std::to_string(w.size()) +
                " write op(s) but " + partner->qual + partner->name +
                " issues " + std::to_string(r.size()) + " read op(s); " +
                (extra_writes ? "unread [" : "unwritten [") + odd.kind +
                "] at line " + std::to_string(odd.line));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Check 3: metric & detector key audit.

struct KeyUse {
  std::string key;  // exact key, or prefix (ends with '.') when wildcard
  bool wildcard = false;
  std::string path;
  int line = 0;
};

// A trailing-dot literal ("fms.health." + name) emits a whole family; track
// it as a prefix wildcard.
std::vector<KeyUse> extract_metric_keys(const ScannedFile& file) {
  std::vector<KeyUse> out;
  for (std::size_t idx = 0; idx < file.lines.size(); ++idx) {
    for (const std::string& lit : file.lines[idx].literals) {
      if (lit.rfind("fms.", 0) != 0 || lit.size() <= 4) continue;
      KeyUse use;
      use.key = lit;
      use.wildcard = lit.back() == '.';
      use.path = file.path;
      use.line = static_cast<int>(idx) + 1;
      out.push_back(std::move(use));
    }
  }
  return out;
}

// Detector ids: the string literals inside a kDetectorNames array
// initializer (declaration line through the closing brace).
std::vector<KeyUse> extract_detector_ids(const ScannedFile& file) {
  std::vector<KeyUse> out;
  const std::size_t n = file.lines.size();
  for (std::size_t idx = 0; idx < n; ++idx) {
    const std::string& code = file.lines[idx].code;
    const std::size_t pos = code.find("kDetectorNames");
    if (pos == std::string::npos) continue;
    if (code.find('{', pos) == std::string::npos &&
        code.find('=', pos) == std::string::npos) {
      continue;  // a reference like kDetectorNames[i], not the definition
    }
    for (std::size_t l = idx; l < n; ++l) {
      for (const std::string& lit : file.lines[l].literals) {
        KeyUse use;
        use.key = lit;
        use.path = file.path;
        use.line = static_cast<int>(l) + 1;
        out.push_back(std::move(use));
      }
      if (file.lines[l].code.find('}') != std::string::npos) break;
    }
    break;
  }
  return out;
}

struct DocKeys {
  std::vector<KeyUse> metrics;    // wildcard when the row had a <var>
  std::vector<KeyUse> detectors;  // exact ids
};

// Documented keys live between explicit markers so the audit never
// guesses at prose:
//   <!-- fms-analyze: metric-table-begin -->  ...  metric-table-end -->
//   <!-- fms-analyze: detector-table-begin -->  ...  detector-table-end -->
// Inside a metric table every `fms.*` backtick token is a key (a <var>
// segment makes it a prefix wildcard); inside a detector table the first
// backtick token of each line is a detector id.
DocKeys parse_design_doc(const std::string& text, const std::string& path) {
  DocKeys out;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  enum class Table { kNone, kMetric, kDetector };
  Table table = Table::kNone;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find("fms-analyze: metric-table-begin") != std::string::npos) {
      table = Table::kMetric;
      continue;
    }
    if (line.find("fms-analyze: detector-table-begin") != std::string::npos) {
      table = Table::kDetector;
      continue;
    }
    if (line.find("fms-analyze: metric-table-end") != std::string::npos ||
        line.find("fms-analyze: detector-table-end") != std::string::npos) {
      table = Table::kNone;
      continue;
    }
    if (table == Table::kNone) continue;
    // Each `token`: a backtick, at least one other char, a backtick.
    std::size_t open = line.find('`');
    while (open != std::string::npos) {
      const std::size_t close = line.find('`', open + 1);
      if (close == std::string::npos) break;
      if (close == open + 1) {  // empty pair: the second may open a token
        open = close;
        continue;
      }
      const std::string token = line.substr(open + 1, close - open - 1);
      open = line.find('`', close + 1);
      if (table == Table::kMetric) {
        if (token.rfind("fms.", 0) != 0) continue;
        KeyUse use;
        const std::size_t var = token.find('<');
        use.wildcard = var != std::string::npos;
        use.key = use.wildcard ? token.substr(0, var) : token;
        use.path = path;
        use.line = lineno;
        out.metrics.push_back(std::move(use));
      } else {
        KeyUse use;
        use.key = token;
        use.path = path;
        use.line = lineno;
        out.detectors.push_back(std::move(use));
        break;  // first token per row is the id; the rest is prose
      }
    }
  }
  return out;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

// A code key matches a documented key when they are equal, or when either
// side's prefix wildcard covers the other.
bool keys_match(const KeyUse& code, const KeyUse& doc) {
  if (!code.wildcard && !doc.wildcard) return code.key == doc.key;
  if (code.wildcard && !doc.wildcard) return starts_with(doc.key, code.key);
  if (!code.wildcard && doc.wildcard) return starts_with(code.key, doc.key);
  return starts_with(code.key, doc.key) || starts_with(doc.key, code.key);
}

void check_metrics(const std::vector<ScannedFile>& files,
                   const std::string& design_text,
                   const std::string& design_path,
                   std::vector<Finding>* out) {
  std::vector<std::pair<KeyUse, const ScannedFile*>> code_keys;
  std::vector<std::pair<KeyUse, const ScannedFile*>> code_detectors;
  for (const ScannedFile& f : files) {
    if (!under_src(f.path)) continue;
    for (KeyUse& k : extract_metric_keys(f)) code_keys.emplace_back(k, &f);
    for (KeyUse& d : extract_detector_ids(f)) {
      code_detectors.emplace_back(d, &f);
    }
  }
  const DocKeys doc = parse_design_doc(design_text, design_path);

  // Code -> doc, first emission site per distinct key only.
  std::set<std::string> reported;
  for (const auto& [use, file] : code_keys) {
    const std::string id = (use.wildcard ? "*" : "=") + use.key;
    if (reported.count(id) != 0) continue;
    reported.insert(id);
    if (allowed(*file, use.line, kCheckMetricUndoc)) continue;
    bool documented = false;
    for (const KeyUse& d : doc.metrics) {
      if (keys_match(use, d)) {
        documented = true;
        break;
      }
    }
    if (!documented) {
      add(out, use.path, use.line, kCheckMetricUndoc,
          "metric key " + use.key + (use.wildcard ? "* " : " ") +
              "is not in the " + design_path +
              " metric table; document it (or drop the emission)");
    }
  }

  // Doc -> code.
  for (const KeyUse& d : doc.metrics) {
    bool emitted = false;
    for (const auto& [use, file] : code_keys) {
      if (keys_match(use, d)) {
        emitted = true;
        break;
      }
    }
    if (!emitted) {
      add(out, d.path, d.line, kCheckMetricStale,
          "documented metric key " + d.key + (d.wildcard ? "<...>" : "") +
              " is emitted nowhere under src/; remove the row (or restore "
              "the emission)");
    }
  }

  // Detectors, both directions.
  std::set<std::string> doc_ids;
  for (const KeyUse& d : doc.detectors) doc_ids.insert(d.key);
  std::set<std::string> code_ids;
  for (const auto& [use, file] : code_detectors) {
    code_ids.insert(use.key);
    if (doc_ids.count(use.key) == 0 &&
        !allowed(*file, use.line, kCheckDetectorUndoc)) {
      add(out, use.path, use.line, kCheckDetectorUndoc,
          "health detector '" + use.key + "' is not in the " + design_path +
              " detector table");
    }
  }
  for (const KeyUse& d : doc.detectors) {
    if (code_ids.count(d.key) == 0) {
      add(out, d.path, d.line, kCheckDetectorStale,
          "documented detector '" + d.key +
              "' does not appear in any kDetectorNames array");
    }
  }
}

}  // namespace

const std::vector<CheckInfo>& checks() {
  static const std::vector<CheckInfo> kChecks = {
      {kCheckSaltCollision,
       "two splitmix64 salt constants share a value (code or registry)"},
      {kCheckSaltUnregistered,
       "salt constant missing from tools/salt_registry.txt or value "
       "disagrees"},
      {kCheckSaltStale,
       "salt registry row whose constant no longer exists in code"},
      {kCheckCkptAsymmetry,
       "serialize/deserialize (checkpoint/restore) pair with mismatched "
       "write/read op sequences"},
      {kCheckMetricUndoc,
       "fms.* metric key emitted in src/ but absent from the DESIGN.md "
       "metric table"},
      {kCheckMetricStale,
       "documented metric key that no code emits"},
      {kCheckDetectorUndoc,
       "health detector id in code but not in the DESIGN.md detector "
       "table"},
      {kCheckDetectorStale,
       "documented detector id that no kDetectorNames array defines"},
  };
  return kChecks;
}

std::vector<Finding> analyze_sources(
    const std::vector<std::pair<std::string, std::string>>& files,
    const std::string& registry_text, const std::string& registry_path,
    const std::string& design_text, const std::string& design_path) {
  std::vector<ScannedFile> scanned;
  scanned.reserve(files.size());
  for (const auto& [path, contents] : files) {
    ScannedFile sf;
    sf.path = path;
    std::replace(sf.path.begin(), sf.path.end(), '\\', '/');
    sf.lines = scan(contents, "fms-analyze");
    scanned.push_back(std::move(sf));
  }
  std::vector<Finding> out;
  check_salts(scanned, registry_text, registry_path, &out);
  check_checkpoints(scanned, &out);
  check_metrics(scanned, design_text, design_path, &out);
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.path, a.line, a.check, a.message) <
           std::tie(b.path, b.line, b.check, b.message);
  });
  return out;
}

std::vector<Finding> analyze_tree(const std::vector<std::string>& roots,
                                  const Options& opts) {
  std::vector<std::pair<std::string, std::string>> files;
  for (const std::string& p : source_files(roots, "fms_analyze")) {
    files.emplace_back(p, read_file(p, "fms_analyze"));
  }
  return analyze_sources(
      files, read_file(opts.salt_registry_path, "fms_analyze"),
      opts.salt_registry_path,
      read_file(opts.design_doc_path, "fms_analyze"), opts.design_doc_path);
}

}  // namespace fms::analyze
