// Tests for the run-report generator and trace differ
// (src/obs/report.*): byte-exact golden HTML over committed fixture
// artifacts, graceful degradation on missing inputs, the
// self-containment contract (no scripts, no external references), and
// the --compare primitive pinpointing the first diverging round/field.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/obs/report.h"

namespace fms {
namespace {

std::string golden_dir() { return std::string(FMS_TEST_GOLDEN_DIR) + "/report"; }

obs::ReportInputs fixture_inputs() {
  obs::ReportInputs inputs;
  inputs.trace_jsonl_path = golden_dir() + "/trace.jsonl";
  inputs.metrics_csv_path = golden_dir() + "/metrics.csv";
  inputs.health_json_path = golden_dir() + "/health.json";
  inputs.bench_json_path = golden_dir() + "/bench.json";
  inputs.history_jsonl_path = golden_dir() + "/history.jsonl";
  inputs.peak_json_path = golden_dir() + "/peak.json";
  return inputs;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

// Diffs two runs given as JSONL text. The files are named after the
// running test: ctest runs each case as its own process in one shared
// directory, so fixed names would let parallel cases clobber each other.
obs::RunDiff diff_texts(const std::string& a, const std::string& b) {
  const std::string stem =
      std::string("fms_test_diff_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  const std::string path_a = stem + "_a.jsonl";
  const std::string path_b = stem + "_b.jsonl";
  write_file(path_a, a);
  write_file(path_b, b);
  obs::RunDiff diff = obs::diff_runs(path_a, path_b);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  return diff;
}

TEST(ReportTest, GoldenReportMatchesCommittedFixture) {
  // The report is a deterministic function of its inputs; any change to
  // the HTML (layout, numbers, section order) must show up as a diff of
  // the committed golden file. Regenerate with (one command line):
  //   fms_report --out tests/golden/report/report.html
  //     --trace tests/golden/report/trace.jsonl
  //     --metrics tests/golden/report/metrics.csv
  //     --health tests/golden/report/health.json
  //     --bench tests/golden/report/bench.json
  //     --history tests/golden/report/history.jsonl
  //     --peak tests/golden/report/peak.json
  const std::string golden = slurp(golden_dir() + "/report.html");
  ASSERT_FALSE(golden.empty()) << "missing golden fixture report.html";
  const std::string html = obs::generate_report_html(fixture_inputs());
  EXPECT_EQ(html, golden);
}

TEST(ReportTest, GenerationIsDeterministic) {
  const std::string a = obs::generate_report_html(fixture_inputs());
  const std::string b = obs::generate_report_html(fixture_inputs());
  EXPECT_EQ(a, b);
}

TEST(ReportTest, HistoryRowsWithSrcLocRenderLikeRowsWithout) {
  // fms_bench --history rows carry a src_loc field the committed fixture
  // predates; the report reads both kinds, and the field changes nothing.
  std::istringstream rows(slurp(golden_dir() + "/history.jsonl"));
  std::string with_loc, line;
  while (std::getline(rows, line)) {
    const std::size_t at = line.find(", \"benchmarks\"");
    ASSERT_NE(at, std::string::npos) << line;
    with_loc += line.substr(0, at) + ", \"src_loc\": 14000" +
                line.substr(at) + "\n";
  }
  const std::string path = "fms_test_history_src_loc.jsonl";
  write_file(path, with_loc);
  obs::ReportInputs inputs = fixture_inputs();
  inputs.history_jsonl_path = path;
  EXPECT_EQ(obs::generate_report_html(inputs),
            obs::generate_report_html(fixture_inputs()));
  std::remove(path.c_str());
}

TEST(ReportTest, ReportIsSelfContained) {
  const std::string html = obs::generate_report_html(fixture_inputs());
  // No scripts, no external fetches, no file-system paths leaked.
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
  EXPECT_EQ(html.find("src="), std::string::npos);
  EXPECT_EQ(html.find(golden_dir()), std::string::npos);
  // And the real content made it in.
  EXPECT_NE(html.find("Round timeline"), std::string::npos);
  EXPECT_NE(html.find("Op roofline"), std::string::npos);
  EXPECT_NE(html.find("nn.conv_fwd"), std::string::npos);
  EXPECT_NE(html.find("nn.conv3x3_fwd"), std::string::npos);
}

TEST(ReportTest, MissingInputsDegradeToPlaceholders) {
  obs::ReportInputs inputs;  // every path empty
  inputs.title = "empty run";
  const std::string html = obs::generate_report_html(inputs);
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("empty run"), std::string::npos);
  EXPECT_NE(html.find("no trace data"), std::string::npos);
  EXPECT_NE(html.find("no health data"), std::string::npos);
  EXPECT_NE(html.find("no bench data"), std::string::npos);
  EXPECT_NE(html.find("no metrics data"), std::string::npos);
  EXPECT_NE(html.find("</html>"), std::string::npos);

  obs::ReportInputs absent = fixture_inputs();
  absent.trace_jsonl_path = "definitely_not_a_file.jsonl";
  const std::string partial = obs::generate_report_html(absent);
  EXPECT_NE(partial.find("no trace data"), std::string::npos);
  EXPECT_NE(partial.find("Search health"), std::string::npos);
}

TEST(ReportTest, DiffReportsIdenticalRunsAsIdentical) {
  const std::string text =
      "{\"type\":\"round\",\"name\":\"round\",\"round\":0,"
      "\"mean_reward\":0.5,\"arrived\":4}\n"
      "{\"type\":\"round\",\"name\":\"round\",\"round\":1,"
      "\"mean_reward\":0.625,\"arrived\":4}\n";
  const obs::RunDiff diff = diff_texts(text, text);
  EXPECT_TRUE(diff.identical);
  EXPECT_EQ(diff.rounds_a, 2);
  EXPECT_EQ(diff.rounds_b, 2);
  EXPECT_EQ(diff.first_diverging_round, -1);
  EXPECT_NE(obs::diff_summary(diff).find("identical"), std::string::npos);
  EXPECT_NE(obs::generate_diff_html(diff, "a", "b").find("IDENTICAL"),
            std::string::npos);
}

TEST(ReportTest, DiffPinpointsFirstDivergingRoundAndField) {
  // Runs agree through round 1, then round 2's mean_reward drifts; the
  // differ must name exactly that round and field with both values.
  const std::string head =
      "{\"type\":\"round\",\"name\":\"round\",\"round\":0,"
      "\"mean_reward\":0.5,\"moving_avg\":0.5}\n"
      "{\"type\":\"round\",\"name\":\"round\",\"round\":1,"
      "\"mean_reward\":0.625,\"moving_avg\":0.5625}\n";
  const obs::RunDiff diff = diff_texts(
      head +
          "{\"type\":\"round\",\"name\":\"round\",\"round\":2,"
          "\"mean_reward\":0.75,\"moving_avg\":0.65625}\n",
      head +
          "{\"type\":\"round\",\"name\":\"round\",\"round\":2,"
          "\"mean_reward\":0.8125,\"moving_avg\":0.65625}\n");
  EXPECT_FALSE(diff.identical);
  EXPECT_EQ(diff.first_diverging_round, 2);
  EXPECT_EQ(diff.first_diverging_field, "mean_reward");
  EXPECT_DOUBLE_EQ(diff.value_a, 0.75);
  EXPECT_DOUBLE_EQ(diff.value_b, 0.8125);
  const std::string summary = obs::diff_summary(diff);
  EXPECT_NE(summary.find("round 2"), std::string::npos);
  EXPECT_NE(summary.find("mean_reward"), std::string::npos);
  EXPECT_NE(obs::generate_diff_html(diff, "a", "b").find("DIVERGED"),
            std::string::npos);
}

TEST(ReportTest, DiffFlagsTruncatedRuns) {
  const std::string round0 =
      "{\"type\":\"round\",\"name\":\"round\",\"round\":0,"
      "\"mean_reward\":0.5}\n";
  const obs::RunDiff diff = diff_texts(
      round0 +
          "{\"type\":\"round\",\"name\":\"round\",\"round\":1,"
          "\"mean_reward\":0.625}\n",
      round0);
  EXPECT_FALSE(diff.identical);
  EXPECT_EQ(diff.first_diverging_round, 1);
  EXPECT_EQ(diff.first_diverging_field, "(missing round)");
  ASSERT_EQ(diff.notes.size(), 1U);
  EXPECT_NE(diff.notes[0].find("round counts differ"), std::string::npos);
}

TEST(ReportTest, DiffSkipsLinesWhoseRoundIsNotAnInt) {
  // A round beyond int range is as malformed as bad JSON: the line is
  // skipped, never cast (that cast is undefined behaviour).
  const std::string round0 =
      "{\"type\":\"round\",\"name\":\"round\",\"round\":0,"
      "\"mean_reward\":0.5}\n";
  const obs::RunDiff diff = diff_texts(
      round0 +
          "{\"type\":\"round\",\"name\":\"round\",\"round\":1e999,"
          "\"mean_reward\":0.625}\n",
      round0);
  EXPECT_TRUE(diff.identical);
  EXPECT_EQ(diff.rounds_a, 1);
  EXPECT_EQ(diff.rounds_b, 1);
}

TEST(ReportTest, OutOfRangeDegradeModeReadsAsNormal) {
  write_file("fms_test_report_mode.jsonl",
             "{\"type\":\"round\",\"name\":\"round\",\"round\":0,"
             "\"mean_reward\":0.5,\"degrade_mode\":1e300}\n");
  obs::ReportInputs inputs;
  inputs.trace_jsonl_path = "fms_test_report_mode.jsonl";
  const std::string html = obs::generate_report_html(inputs);
  EXPECT_NE(html.find("fill=\"#d7e8d7\""), std::string::npos);
  std::remove("fms_test_report_mode.jsonl");
}

TEST(ReportTest, DiffReportsUnreadableInputs) {
  const obs::RunDiff diff =
      obs::diff_runs("no_such_trace_a.jsonl", "no_such_trace_b.jsonl");
  EXPECT_FALSE(diff.identical);
  ASSERT_FALSE(diff.notes.empty());
  EXPECT_NE(diff.notes[0].find("cannot read"), std::string::npos);
}

TEST(ReportTest, WriteReportHtmlWritesTheFile) {
  obs::ReportInputs inputs;
  inputs.title = "smoke";
  obs::write_report_html(inputs, "fms_test_report_out.html");
  const std::string html = slurp("fms_test_report_out.html");
  EXPECT_NE(html.find("smoke"), std::string::npos);
  EXPECT_NE(html.find("</html>"), std::string::npos);
  std::remove("fms_test_report_out.html");
}

}  // namespace
}  // namespace fms
