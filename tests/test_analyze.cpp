// Fixture-driven tests for tools/fms_analyze: every check must fire on
// its known-bad mini-tree at the exact expected line, stay silent on a
// consistent tree, and honor the fms-analyze: allow(...) escape hatch in
// both its same-line and comment-line-above forms. Each fixture is a
// directory holding src/ files plus the registry/design artifacts the
// checks cross-reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "tools/fms_analyze/analyze.h"

namespace {

namespace fs = std::filesystem;

using fms::analyze::analyze_sources;
using fms::analyze::analyze_tree;
using fms::analyze::Finding;
using fms::analyze::Options;

std::string fixture_dir(const std::string& name) {
  return std::string(FMS_ANALYZE_FIXTURE_DIR) + "/" + name;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Runs every check over one fixture mini-tree: src/ files are loaded
// under src/-rooted relative paths (the scoping the real tree sees), and
// registry.txt / design.md are optional per fixture.
std::vector<Finding> run_case(const std::string& name) {
  const fs::path dir(fixture_dir(name));
  std::vector<std::pair<std::string, std::string>> files;
  const fs::path srcdir = dir / "src";
  if (fs::exists(srcdir)) {
    for (const auto& e : fs::recursive_directory_iterator(srcdir)) {
      if (e.is_regular_file()) {
        files.emplace_back(
            "src/" + fs::relative(e.path(), srcdir).generic_string(),
            slurp(e.path()));
      }
    }
  }
  std::sort(files.begin(), files.end());
  auto optional = [&dir](const char* leaf) {
    const fs::path p = dir / leaf;
    return fs::exists(p) ? slurp(p) : std::string();
  };
  return analyze_sources(files, optional("registry.txt"), "registry.txt",
                         optional("design.md"), "design.md");
}

// (path, check, line) triples in report order — what the assertions
// compare. Findings land on code lines, registry rows, or doc rows, so
// the path is part of the contract.
using PCL = std::vector<std::tuple<std::string, std::string, int>>;

PCL check_lines(const std::vector<Finding>& findings) {
  PCL out;
  out.reserve(findings.size());
  for (const Finding& f : findings) {
    out.emplace_back(f.path, f.check, f.line);
  }
  return out;
}

TEST(FmsAnalyze, SaltCollisionFiresInCodeAndRegistry) {
  EXPECT_EQ(check_lines(run_case("salt_collision")),
            (PCL{{"registry.txt", "salt-collision", 4},
                 {"src/a.cpp", "salt-collision", 5}}));
}

TEST(FmsAnalyze, SaltUnregisteredFiresOnMissingRowAndValueDrift) {
  EXPECT_EQ(check_lines(run_case("salt_unregistered")),
            (PCL{{"src/a.cpp", "salt-unregistered", 4},
                 {"src/a.cpp", "salt-unregistered", 5}}));
}

TEST(FmsAnalyze, SaltStaleFiresAtTheDeadRegistryRow) {
  EXPECT_EQ(check_lines(run_case("salt_stale")),
            (PCL{{"registry.txt", "salt-stale", 2}}));
}

TEST(FmsAnalyze, CheckpointAsymmetryFiresOnKindAndCountMismatch) {
  // Foo: op 2 written as vector but read as string (reported at the
  // read site); Bar: two writes, one read (reported at the unread op).
  EXPECT_EQ(check_lines(run_case("ckpt_asymmetry")),
            (PCL{{"src/state.cpp", "checkpoint-asymmetry", 12},
                 {"src/state.cpp", "checkpoint-asymmetry", 17}}));
}

TEST(FmsAnalyze, DocAuditFiresInBothDirections) {
  EXPECT_EQ(check_lines(run_case("doc_audit")),
            (PCL{{"design.md", "metric-stale", 3},
                 {"design.md", "detector-stale", 7},
                 {"src/emit.cpp", "metric-undocumented", 6},
                 {"src/emit.cpp", "detector-undocumented", 11}}));
}

TEST(FmsAnalyze, SuppressionsSilenceEveryCodeSideCheck) {
  EXPECT_TRUE(run_case("suppressed").empty());
}

TEST(FmsAnalyze, ConsistentTreeProducesNoFindings) {
  EXPECT_TRUE(run_case("clean").empty());
}

TEST(FmsAnalyze, CommentsAndStringsNeverDefineSalts) {
  const std::string src =
      "// kSaltFake = 0x77 in a comment\n"
      "const char* s = \"kSaltFake = 0x78\";\n";
  EXPECT_TRUE(analyze_sources({{"src/a.cpp", src}}, "", "registry.txt", "",
                              "design.md")
                  .empty());
}

TEST(FmsAnalyze, DigitSeparatedSaltReadsAsOneValue) {
  const std::string src = "constexpr std::uint64_t kSaltA = 0x9e37'79b9;\n";
  EXPECT_TRUE(analyze_sources({{"src/a.cpp", src}}, "0x9e3779b9 kSaltA\n",
                              "registry.txt", "", "design.md")
                  .empty());
  const std::vector<Finding> unregistered = analyze_sources(
      {{"src/a.cpp", src}}, "", "registry.txt", "", "design.md");
  ASSERT_EQ(unregistered.size(), 1U);
  EXPECT_EQ(unregistered[0].message.rfind("kSaltA = 0x9E3779B9 is not in", 0),
            0U);
}

TEST(FmsAnalyze, QualifiedDefinitionsPairAndMemberCallsDoNotDefine) {
  // Lines 2-3 call serialize/restore as members; a brace after the call
  // must not make either a definition. Lines 5 and 9 define the pair.
  const std::string src =
      "void helper(A& obj, A* p, ByteWriter& w, ByteReader& r) {\n"
      "  obj.serialize(w), [&] { w.write_string(s); }();\n"
      "  p->restore(r), [&] { r.read_vector<float>(); }();\n"
      "}\n"
      "void A::B::serialize(ByteWriter& w) const {\n"
      "  w.write(n_);\n"
      "  obj.serialize(w);\n"
      "}\n"
      "void A::B::restore(ByteReader& r) {\n"
      "  s_ = r.read_string();\n"
      "  obj.restore(r);\n"
      "}\n";
  const std::vector<Finding> found = analyze_sources(
      {{"src/state.cpp", src}}, "", "registry.txt", "", "design.md");
  ASSERT_EQ(check_lines(found),
            (PCL{{"src/state.cpp", "checkpoint-asymmetry", 10}}));
  EXPECT_EQ(found[0].message,
            "A::B::serialize writes op 1 as [scalar] (line 6) but "
            "A::B::restore reads [string]");
}

TEST(FmsAnalyze, DesignRowCarriesSeveralBacktickKeys) {
  const std::string src =
      "void f(Registry& reg) { reg.counter(\"fms.a.one\").add(1); }\n";
  const std::string design =
      "<!-- fms-analyze: metric-table-begin -->\n"
      "| `fms.a.one` and `fms.a.two` | counter | two keys, one row |\n"
      "<!-- fms-analyze: metric-table-end -->\n";
  EXPECT_EQ(check_lines(analyze_sources({{"src/t.cpp", src}}, "",
                                        "registry.txt", design, "design.md")),
            (PCL{{"design.md", "metric-stale", 2}}));
}

TEST(FmsAnalyze, MetricAuditIsSrcScoped) {
  // fms.* literals in tests/bench/tools (e.g. assertions on key names)
  // are not emissions and never need documenting.
  const std::string src =
      "void f(Registry& reg) { reg.counter(\"fms.test.only\").add(1); }\n";
  EXPECT_TRUE(analyze_sources({{"tests/t.cpp", src}}, "", "registry.txt",
                              "", "design.md")
                  .empty());
  EXPECT_EQ(analyze_sources({{"src/t.cpp", src}}, "", "registry.txt", "",
                            "design.md")
                .size(),
            1U);
}

TEST(FmsAnalyze, PrefixWildcardsMatchBothWays) {
  // A trailing-dot literal in code (key assembled at runtime) matches a
  // documented `fms.x.<var>` family row, and vice versa.
  const std::string src =
      "void f(Registry& reg, const std::string& n) {\n"
      "  reg.gauge(\"fms.family.\" + n).set(1.0);\n"
      "}\n";
  const std::string design =
      "<!-- fms-analyze: metric-table-begin -->\n"
      "| `fms.family.<name>` | gauge | per-name family |\n"
      "<!-- fms-analyze: metric-table-end -->\n";
  EXPECT_TRUE(analyze_sources({{"src/t.cpp", src}}, "", "registry.txt",
                              design, "design.md")
                  .empty());
}

TEST(FmsAnalyze, TreeScanSkipsFixturesAndAcceptsFiles) {
  Options opts;
  opts.salt_registry_path = fixture_dir("empty") + "/registry.txt";
  opts.design_doc_path = fixture_dir("empty") + "/design.md";
  // The fixture directory is excluded from recursive scans by design...
  EXPECT_TRUE(
      analyze_tree({std::string(FMS_ANALYZE_FIXTURE_DIR)}, opts).empty());
  // ...but naming a fixture file directly is deliberate and analyzes it
  // (two unregistered salts against the empty registry).
  EXPECT_EQ(
      analyze_tree({fixture_dir("salt_unregistered") + "/src/a.cpp"}, opts)
          .size(),
      2U);
  EXPECT_THROW(analyze_tree({fixture_dir("no_such_dir")}, opts),
               fms::CheckError);
}

TEST(FmsAnalyze, CheckListIsStable) {
  std::vector<std::string> ids;
  for (const auto& c : fms::analyze::checks()) ids.emplace_back(c.id);
  EXPECT_EQ(ids, (std::vector<std::string>{
                     "salt-collision", "salt-unregistered", "salt-stale",
                     "checkpoint-asymmetry", "metric-undocumented",
                     "metric-stale", "detector-undocumented",
                     "detector-stale"}));
}

}  // namespace
