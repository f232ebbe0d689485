// Fixture-driven tests for tools/fms_lint: every rule must fire on its
// known-bad fixture at the exact expected line, stay silent on clean
// code, and honor the fms-lint: allow(...) escape hatch in both its
// same-line and comment-line-above forms.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "tools/fms_lint/lint.h"

namespace {

using fms::lint::Finding;
using fms::lint::lint_file;
using fms::lint::lint_source;
using fms::lint::lint_tree;

std::string fixture(const std::string& name) {
  return std::string(FMS_LINT_FIXTURE_DIR) + "/" + name;
}

// (rule, line) pairs in file order — what the assertions compare.
std::vector<std::pair<std::string, int>> rule_lines(
    const std::vector<Finding>& findings) {
  std::vector<std::pair<std::string, int>> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) out.emplace_back(f.rule, f.line);
  return out;
}

using RL = std::vector<std::pair<std::string, int>>;

TEST(FmsLint, UnseededRngFiresAtExactLines) {
  EXPECT_EQ(rule_lines(lint_file(fixture("bad_rng.cpp"))),
            (RL{{"unseeded-rng", 7},
                {"unseeded-rng", 12},
                {"unseeded-rng", 13}}));
}

TEST(FmsLint, WallClockFiresAtExactLines) {
  EXPECT_EQ(rule_lines(lint_file(fixture("bad_wallclock.cpp"))),
            (RL{{"wall-clock", 7}, {"wall-clock", 12}}));
}

TEST(FmsLint, WallClockFiresInTraceExportPath) {
  // Pins wall-clock coverage of the obs trace-export path: the Chrome
  // exporter's contract is sim-time ticks, so a host-clock "ts" or a
  // metadata time() stamp in an exporter must keep firing.
  EXPECT_EQ(rule_lines(lint_file(fixture("obs/bad_trace_export.cpp"))),
            (RL{{"wall-clock", 12}, {"wall-clock", 17}}));
}

TEST(FmsLint, UnorderedContainerFiresInOrderingSensitivePath) {
  EXPECT_EQ(rule_lines(lint_file(fixture("core/bad_unordered.cpp"))),
            (RL{{"unordered-container", 5}, {"unordered-container", 7}}));
}

TEST(FmsLint, UnorderedContainerFiresInAggPath) {
  EXPECT_EQ(rule_lines(lint_file(fixture("agg/bad_unordered.cpp"))),
            (RL{{"unordered-container", 6}, {"unordered-container", 8}}));
}

TEST(FmsLint, FloatEqFiresAtExactLines) {
  EXPECT_EQ(rule_lines(lint_file(fixture("bad_float_eq.cpp"))),
            (RL{{"float-eq", 4}, {"float-eq", 6}, {"float-eq", 8}}));
}

TEST(FmsLint, MissingPragmaOnceReportsLineOne) {
  EXPECT_EQ(rule_lines(lint_file(fixture("bad_header.h"))),
            (RL{{"pragma-once", 1}}));
}

TEST(FmsLint, BareThrowFiresAtExactLine) {
  EXPECT_EQ(rule_lines(lint_file(fixture("bad_throw.cpp"))),
            (RL{{"bare-throw", 6}}));
}

TEST(FmsLint, NarrowingAccumFiresAtExactLines) {
  EXPECT_EQ(rule_lines(lint_file(fixture("agg/bad_narrowing_accum.cpp"))),
            (RL{{"narrowing-accum", 7},
                {"narrowing-accum", 14},
                {"narrowing-accum", 21}}));
}

TEST(FmsLint, NarrowingAccumIsPathScoped) {
  // The same narrowing accumulation outside src/agg / src/tensor is not
  // a hot reduction kernel and stays legal.
  const std::string src =
      "float f(const std::vector<double>& v) {\n"
      "  float acc = 0.0F;\n"
      "  for (double x : v) acc += static_cast<float>(x);\n"
      "  return acc;\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/nn/layers.cpp", src).empty());
  EXPECT_EQ(lint_source("src/agg/robust.cpp", src).size(), 1U);
  EXPECT_EQ(lint_source("src/tensor/ops.cpp", src).size(), 1U);
}

TEST(FmsLint, NarrowingOutsideLoopIsLegal) {
  // Narrowing once after the loop is exactly the recommended pattern.
  const std::string src =
      "float f(const std::vector<double>& v) {\n"
      "  double acc = 0.0;\n"
      "  for (double x : v) acc += x;\n"
      "  float out = 0.0F;\n"
      "  out += static_cast<float>(acc);\n"
      "  return out;\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/agg/robust.cpp", src).empty());
}

TEST(FmsLint, WideAccumulationInLoopIsLegal) {
  // The idioms the hot paths already use: a double accumulator fed
  // widened elements, and a float accumulator fed plain float products.
  const std::string src =
      "double g(const std::vector<float>& v) {\n"
      "  double sq = 0.0;\n"
      "  for (const float x : v) sq += static_cast<double>(x) * x;\n"
      "  float acc = 0.0F;\n"
      "  for (const float x : v) acc += x * x;\n"
      "  return sq + acc;\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/agg/robust.cpp", src).empty());
}

TEST(FmsLint, SuppressionsSilenceEveryRule) {
  EXPECT_TRUE(lint_file(fixture("suppressed.cpp")).empty());
  EXPECT_TRUE(lint_file(fixture("suppressed.h")).empty());
  EXPECT_TRUE(lint_file(fixture("core/suppressed_unordered.cpp")).empty());
  EXPECT_TRUE(lint_file(fixture("agg/suppressed_narrowing.cpp")).empty());
}

TEST(FmsLint, WallClockExemptionIsNarrow) {
  // The fms_bench timestamp idiom: an annotated metadata std::time read
  // passes, but the exemption does not bleed onto an unannotated read
  // elsewhere in the same file.
  EXPECT_EQ(rule_lines(lint_file(fixture("bench_timestamp.cpp"))),
            (RL{{"wall-clock", 13}}));
}

TEST(FmsLint, CleanFilesProduceNoFindings) {
  EXPECT_TRUE(lint_file(fixture("clean.cpp")).empty());
  EXPECT_TRUE(lint_file(fixture("clean.h")).empty());
}

TEST(FmsLint, CommentsAndStringsNeverFire) {
  const std::string src =
      "// rand() and std::random_device in a comment\n"
      "/* system_clock in a block comment,\n"
      "   spanning lines with time(nullptr) */\n"
      "const char* s = \"srand(1); x == 0.5F\";\n"
      "const char* r = R\"(rand() == 1.0)\";\n";
  EXPECT_TRUE(lint_source("x.cpp", src).empty());
}

TEST(FmsLint, SanctionedFilesAreExempt) {
  EXPECT_TRUE(
      lint_source("src/common/rng.h",
                  "#pragma once\n#include <random>\nstd::random_device rd;\n")
          .empty());
  EXPECT_TRUE(
      lint_source("src/common/stopwatch.h",
                  "#pragma once\nauto t = std::chrono::system_clock::now();\n")
          .empty());
  // The same content elsewhere fires.
  EXPECT_EQ(lint_source("src/sim/devices.h",
                        "#pragma once\n#include <random>\n"
                        "std::random_device rd;\n")
                .size(),
            1U);
}

TEST(FmsLint, UnorderedRuleIsPathScoped) {
  const std::string src = "#include <unordered_map>\n";
  EXPECT_TRUE(lint_source("src/nn/layers.cpp", src).empty());
  EXPECT_EQ(lint_source("src/fed/messages.cpp", src).size(), 1U);
  EXPECT_EQ(lint_source("src/agg/aggregator.cpp", src).size(), 1U);
  EXPECT_EQ(lint_source("src/common/serialize.h",
                        "#pragma once\n#include <unordered_set>\n")
                .size(),
            1U);
}

TEST(FmsLint, IntegerEqualityIsLegal) {
  EXPECT_TRUE(lint_source("x.cpp", "bool f(int n) { return n == 0; }\n")
                  .empty());
  EXPECT_TRUE(lint_source("x.cpp", "bool g(long n) { return 10 != n; }\n")
                  .empty());
}

TEST(FmsLint, FloatEqTableOfLiteralForms) {
  auto lint_cmp = [](const std::string& cmp) {
    return rule_lines(lint_source(
        "x.cpp", "bool f(double x, double y) { return " + cmp + "; }\n"));
  };
  for (const char* cmp :
       {"x == 1.", ".5 != y", "x == +1.5", "x == 1e-3f", "x == 2.0L"}) {
    EXPECT_EQ(lint_cmp(cmp), (RL{{"float-eq", 1}})) << cmp;
  }
  for (const char* cmp : {"x <= 1.0", "n == 0", "x == 0x10", "a.b == 1"}) {
    EXPECT_TRUE(lint_cmp(cmp).empty()) << cmp;
  }
}

TEST(FmsLint, UnterminatedLiteralEndsAtLineEnd) {
  // C++ allows no raw newline in an ordinary literal, so a stray quote
  // must not hide the next line from the rules.
  EXPECT_EQ(rule_lines(lint_source("x.cpp",
                                   "const char* s = \"no closing quote;\n"
                                   "int r = rand();\n")),
            (RL{{"unseeded-rng", 2}}));
  EXPECT_EQ(rule_lines(lint_source("x.cpp",
                                   "char c = 'x;\n"
                                   "int r = rand();\n")),
            (RL{{"unseeded-rng", 2}}));
}

TEST(FmsLint, AllowChainsAcrossCommentLines) {
  const std::string src =
      "// fms-lint: allow(float-eq) -- reason\n"
      "// more prose between the annotation and the code\n"
      "bool f(float x) { return x == 0.5F; }\n";
  EXPECT_TRUE(lint_source("x.cpp", src).empty());
  // ...but a code line in between breaks the chain.
  const std::string broken =
      "// fms-lint: allow(float-eq) -- reason\n"
      "int y = 1;\n"
      "bool f(float x) { return x == 0.5F; }\n";
  EXPECT_EQ(lint_source("x.cpp", broken).size(), 1U);
}

TEST(FmsLint, MultiRuleAllowOnOneLine) {
  const std::string src =
      "#include <ctime>\n"
      "// fms-lint: allow(wall-clock, float-eq) -- both at once\n"
      "bool f() { return time(nullptr) == 0.0; }\n";
  EXPECT_TRUE(lint_source("x.cpp", src).empty());
}

TEST(FmsLint, TreeScanSkipsFixturesAndAcceptsFiles) {
  // The fixture directory is excluded from recursive scans by design...
  EXPECT_TRUE(lint_tree({std::string(FMS_LINT_FIXTURE_DIR)}).empty());
  // ...but naming a fixture file directly is deliberate and lints it.
  EXPECT_EQ(lint_tree({fixture("bad_throw.cpp")}).size(), 1U);
  EXPECT_THROW(lint_tree({fixture("no_such_file.cpp")}), fms::CheckError);
}

TEST(FmsLint, RuleListIsStable) {
  std::vector<std::string> ids;
  for (const auto& r : fms::lint::rules()) ids.emplace_back(r.id);
  EXPECT_EQ(ids, (std::vector<std::string>{
                     "unseeded-rng", "wall-clock", "unordered-container",
                     "float-eq", "pragma-once", "bare-throw",
                     "narrowing-accum"}));
}

}  // namespace
