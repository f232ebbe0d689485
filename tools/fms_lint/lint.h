// fms_lint — repo-specific determinism and convention linter.
//
// The two guarantees this repo stakes its results on — bit-identical
// kill-and-resume and data-race-free concurrent metrics recording — die
// by a thousand innocuous-looking cuts: one std::random_device in a new
// baseline, one wall-clock read in an aggregation path, one iteration
// over an unordered container during serialization. Compiler warnings
// and clang-tidy do not know these project rules, so this linter encodes
// them and runs as a tier-1 ctest (`ctest -L lint`).
//
// The linter is deliberately textual: it reads each file through the
// shared scanner in tools/source_scan (comments and string literals are
// stripped first, so prose mentioning rand() never fires). It trades
// type-awareness for zero build-time cost and total predictability;
// genuine exceptions are annotated in place with
//   // fms-lint: allow(<rule>[,<rule>...])  -- reason
// either on the offending line or on a comment-only line directly above
// it (the annotation chains across consecutive comment lines).
#pragma once

#include <string>
#include <vector>

namespace fms::lint {

// Stable rule identifiers (used in findings and allow() annotations):
//   unseeded-rng         std::random_device / rand() / srand() outside
//                        src/common/rng.h — breaks seeded reproducibility.
//   wall-clock           std::chrono::system_clock / time() / gettimeofday
//                        outside src/common/stopwatch.h — results must not
//                        depend on wall-clock time.
//   unordered-container  std::unordered_{map,set} in aggregation or
//                        serialization code (src/core, src/fed, src/dc,
//                        src/fault, src/obs, *serialize*, *checkpoint*) —
//                        iteration order varies across libstdc++ versions
//                        and hash seeds, which breaks bit-identical resume.
//   float-eq             ==/!= against a floating-point literal — exact
//                        comparison is almost always a tolerance bug.
//   pragma-once          header missing #pragma once.
//   bare-throw           throw std::runtime_error / std::logic_error where
//                        FMS_CHECK / fms::CheckError is the convention.
//   narrowing-accum      float/int narrowing inside an accumulation loop in
//                        src/agg or src/tensor hot paths (+=/-= whose RHS
//                        narrows via static_cast<float>/static_cast<int>,
//                        a float accumulator fed a static_cast<double>
//                        expression, or an int accumulator fed a floating
//                        literal) — narrowing per-element inside the loop
//                        loses precision the paper's aggregation bounds
//                        assume; accumulate wide and narrow once outside.
struct RuleInfo {
  const char* id;
  const char* summary;
};

const std::vector<RuleInfo>& rules();

struct Finding {
  std::string path;
  int line = 0;  // 1-based
  std::string rule;
  std::string message;
};

// Lints one translation unit given its contents. `path` drives the
// sanctioned-file exemptions and the aggregation-context check; it is
// matched with '/' separators regardless of platform.
std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& contents);

// Reads `path` from disk and lints it. Throws fms::CheckError on IO error.
std::vector<Finding> lint_file(const std::string& path);

// Recursively lints every .h/.hpp/.cpp/.cc under `roots`, with
// source_scan's skip list: the fixtures are known-bad by design and build
// trees hold generated code. A root naming a file directly is always
// linted.
std::vector<Finding> lint_tree(const std::vector<std::string>& roots);

}  // namespace fms::lint
