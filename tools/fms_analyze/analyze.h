// fms_analyze — second-generation cross-file semantic analysis.
//
// fms_lint (tools/fms_lint) bans per-line patterns; this pass checks the
// invariants that only emerge *across* files and functions:
//
//   * RNG salt registry — every splitmix64 salt constant (kSalt* = 0x..)
//     must be globally unique and recorded in tools/salt_registry.txt.
//     Two subsystems silently sharing a salt correlates streams the
//     paper's delay-compensation analysis assumes independent; the
//     committed registry makes adding a stream an explicit, reviewed act.
//   * Metric & detector key audit — every `fms.*` metric name and every
//     health-detector id emitted under src/ must appear in the documented
//     tables in DESIGN.md (between the fms-analyze table markers), and
//     every documented key must still exist in code, both directions.
//
// Like the linter, the analysis is textual (it reads files through the
// shared scanner in tools/source_scan; no build needed) and suppressible
// in place:
//   // fms-analyze: allow(<check>[,<check>...])  -- reason
// on the offending line or on a comment line directly above it.
//
// Check identifiers:
//   salt-collision         two salt constants share a value (in code or
//                          in the registry itself)
//   salt-unregistered      a code salt missing from the registry, or
//                          whose registered value disagrees
//   salt-stale             a registry entry with no matching constant
//   metric-undocumented    an fms.* key emitted in src/ but absent from
//                          the DESIGN.md metric table
//   metric-stale           a documented key no code emits
//   detector-undocumented  a health-detector id in code but not in the
//                          DESIGN.md detector table
//   detector-stale         a documented detector id not in code
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace fms::analyze {

struct CheckInfo {
  const char* id;
  const char* summary;
};

const std::vector<CheckInfo>& checks();

struct Finding {
  std::string path;
  int line = 0;  // 1-based
  std::string check;
  std::string message;
};

// In-memory entry point (fixture tests drive this directly): `files` are
// (path, contents) pairs; the registry/design texts are the committed
// artifacts, and the paths are what findings against them carry.
std::vector<Finding> analyze_sources(
    const std::vector<std::pair<std::string, std::string>>& files,
    const std::string& registry_text, const std::string& registry_path,
    const std::string& design_text, const std::string& design_path);

struct Options {
  std::string salt_registry_path;  // e.g. tools/salt_registry.txt
  std::string design_doc_path;     // e.g. DESIGN.md
};

// Reads every .h/.hpp/.cpp/.cc under `roots` (source_scan's skip list:
// lint_fixtures/, analyze_fixtures/, .git/ and build trees), loads the
// registry and design doc named in `opts`, and runs every check. Throws
// fms::CheckError when a root, the registry, or the doc cannot be read.
std::vector<Finding> analyze_tree(const std::vector<std::string>& roots,
                                  const Options& opts);

}  // namespace fms::analyze
