// Tests for the fms_bench harness core: the BENCH_perf.json codec must
// round-trip exactly, the --compare regression gate must fail on an
// injected slowdown past the gate and pass within it, and the harness
// itself must produce deterministic allocation accounting for a
// synthetic benchmark with known tensor traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/obs/json.h"
#include "src/tensor/tensor.h"
#include "tools/fms_bench/bench.h"

namespace {

using fms::bench::BenchFile;
using fms::bench::Benchmark;
using fms::bench::BenchResult;
using fms::bench::compare_bench_files;
using fms::bench::CompareOutcome;
using fms::bench::parse_bench_json;
using fms::bench::run_benchmarks;
using fms::bench::RunOptions;
using fms::bench::to_json;
using fms::bench::ZoneSummary;

BenchResult make_result(const std::string& name, double median_ns) {
  BenchResult r;
  r.name = name;
  r.median_ns = median_ns;
  r.p10_ns = median_ns * 0.9;
  r.p90_ns = median_ns * 1.3;
  r.bytes_alloc = 4096;
  r.allocs = 7;
  r.iters = 20;
  r.repeats = 9;
  r.zones["agg.estimate"] = ZoneSummary{20, 123456};
  r.zones["agg.estimate/agg.mean"] = ZoneSummary{20, 100000};
  return r;
}

BenchFile make_file(const std::vector<BenchResult>& results,
                    long long stamp) {
  return parse_bench_json(to_json(results, stamp));
}

TEST(BenchJson, RoundTripPreservesEveryField) {
  const std::vector<BenchResult> results = {make_result("agg.mean_m10", 52341.5),
                                            make_result("nn.conv3x3_fwd", 987.25)};
  const BenchFile file = parse_bench_json(to_json(results, 1754400000LL));

  EXPECT_EQ(file.schema, 1);
  EXPECT_EQ(file.timestamp_unix, 1754400000LL);
  ASSERT_EQ(file.benchmarks.size(), 2U);

  const BenchResult& r = file.benchmarks.at("agg.mean_m10");
  EXPECT_DOUBLE_EQ(r.median_ns, 52341.5);
  EXPECT_DOUBLE_EQ(r.p10_ns, 52341.5 * 0.9);
  EXPECT_DOUBLE_EQ(r.p90_ns, 52341.5 * 1.3);
  EXPECT_EQ(r.bytes_alloc, 4096U);
  EXPECT_EQ(r.allocs, 7U);
  EXPECT_EQ(r.iters, 20);
  EXPECT_EQ(r.repeats, 9);
  ASSERT_EQ(r.zones.size(), 2U);
  EXPECT_EQ(r.zones.at("agg.estimate").calls, 20U);
  EXPECT_EQ(r.zones.at("agg.estimate").incl_ns, 123456U);
  EXPECT_EQ(r.zones.at("agg.estimate/agg.mean").incl_ns, 100000U);
}

TEST(BenchJson, ReparseIsIdempotent) {
  const std::vector<BenchResult> results = {make_result("ckpt.serialize", 3.5e6)};
  const std::string once = to_json(results, 42);
  const BenchFile parsed = parse_bench_json(once);
  std::vector<BenchResult> again;
  for (const auto& [name, r] : parsed.benchmarks) again.push_back(r);
  EXPECT_EQ(to_json(again, parsed.timestamp_unix), once);
}

TEST(BenchJson, MalformedInputThrows) {
  EXPECT_THROW(parse_bench_json("{ not json"), fms::CheckError);
  EXPECT_THROW(parse_bench_json(""), fms::CheckError);
  EXPECT_THROW(parse_bench_json("{\"schema\": 99, \"benchmarks\": {}}"),
               fms::CheckError);
  EXPECT_THROW(parse_bench_json("{\"schema\": 1}"), fms::CheckError);
  // Trailing garbage after a valid document must not be silently ignored.
  const std::string valid = to_json({make_result("x", 1.0)}, 0);
  EXPECT_THROW(parse_bench_json(valid + "}"), fms::CheckError);
  // Integer fields take only exact integers in range: a bare cast of
  // these would be undefined behaviour, not a parse error. A non-finite
  // median would slip through the gate (NaN > gate is false).
  for (const char* field : {"\"allocs\": -1", "\"flops\": 1e30",
                            "\"iters\": 2.5", "\"bytes_read\": -nan",
                            "\"repeats\": \"9\"", "\"median_ns\": -nan",
                            "\"p90_ns\": inf"}) {
    SCOPED_TRACE(field);
    EXPECT_THROW(parse_bench_json(std::string("{\"schema\": 1, "
                                              "\"benchmarks\": {\"x\": {") +
                                  field + "}}}"),
                 fms::CheckError);
  }
  EXPECT_THROW(parse_bench_json("{\"schema\": 1, \"benchmarks\": {\"x\": "
                                "{\"zones\": {\"z\": {\"calls\": -3}}}}}"),
               fms::CheckError);
}

TEST(BenchCompare, InjectedTwentyPercentSlowdownFailsTenPercentGate) {
  const BenchFile oldf = make_file({make_result("agg.mean_m10", 50000.0),
                                    make_result("nn.bn_fwd", 900.0)},
                                   1);
  // Inject a 20% regression on one benchmark; leave the other flat.
  const BenchFile newf = make_file({make_result("agg.mean_m10", 60000.0),
                                    make_result("nn.bn_fwd", 900.0)},
                                   2);
  const CompareOutcome out = compare_bench_files(oldf, newf, 10.0);
  EXPECT_FALSE(out.ok);
  ASSERT_EQ(out.rows.size(), 2U);
  const auto& row = out.rows[0];
  EXPECT_EQ(row.name, "agg.mean_m10");
  EXPECT_TRUE(row.regressed);
  EXPECT_NEAR(row.delta_pct, 20.0, 1e-9);
  EXPECT_FALSE(out.rows[1].regressed);
  EXPECT_NE(fms::bench::format_compare(out).find("FAIL"), std::string::npos);
}

TEST(BenchCompare, WithinGateAndSpeedupsPass) {
  const BenchFile oldf = make_file({make_result("a", 1000.0),
                                    make_result("b", 1000.0)},
                                   1);
  // +5% is inside a 10% gate; -40% is a speedup and never gates.
  const BenchFile newf = make_file({make_result("a", 1050.0),
                                    make_result("b", 600.0)},
                                   2);
  const CompareOutcome out = compare_bench_files(oldf, newf, 10.0);
  EXPECT_TRUE(out.ok);
  EXPECT_NE(fms::bench::format_compare(out).find("PASS"), std::string::npos);
}

TEST(BenchCompare, TracksAppearingAndDisappearingBenchmarks) {
  const BenchFile oldf = make_file({make_result("kept", 100.0),
                                    make_result("removed", 100.0)},
                                   1);
  const BenchFile newf = make_file({make_result("kept", 100.0),
                                    make_result("added", 100.0)},
                                   2);
  const CompareOutcome out = compare_bench_files(oldf, newf, 10.0);
  EXPECT_TRUE(out.ok);  // membership changes inform, they do not gate
  ASSERT_EQ(out.rows.size(), 1U);
  EXPECT_EQ(out.rows[0].name, "kept");
  EXPECT_EQ(out.only_old, std::vector<std::string>{"removed"});
  EXPECT_EQ(out.only_new, std::vector<std::string>{"added"});
}

TEST(BenchHarness, FilterSelectsSubsetAndRunsIt) {
  std::vector<Benchmark> list;
  list.push_back({"alpha.one", 4, []() -> std::function<void()> {
                    return [] {};
                  }});
  list.push_back({"beta.two", 4, []() -> std::function<void()> {
                    return [] {};
                  }});
  RunOptions opts;
  opts.repeats = 3;
  opts.warmup = 1;
  opts.filter = "beta";
  const std::vector<BenchResult> results = run_benchmarks(list, opts);
  ASSERT_EQ(results.size(), 1U);
  EXPECT_EQ(results[0].name, "beta.two");
  EXPECT_EQ(results[0].repeats, 3);
  EXPECT_GE(results[0].median_ns, 0.0);
  EXPECT_LE(results[0].p10_ns, results[0].p90_ns);
}

TEST(BenchHarness, AccountingPassReportsExactTensorTraffic) {
  // Each iteration allocates (and frees) one 256-float tensor, so the
  // single accounting repetition of `iters` iterations must see exactly
  // iters allocations of 1 KiB each — independent of repeats/warmup,
  // which run with the ledger off.
  std::vector<Benchmark> list;
  list.push_back({"synthetic.alloc", 6, []() -> std::function<void()> {
                    return [] {
                      fms::Tensor t({256}, 1.0F);
                      (void)t;
                    };
                  }});
  RunOptions opts;
  opts.repeats = 2;
  opts.warmup = 1;
  const std::vector<BenchResult> results = run_benchmarks(list, opts);
  ASSERT_EQ(results.size(), 1U);
  EXPECT_EQ(results[0].allocs, 6U);
  EXPECT_EQ(results[0].bytes_alloc, 6U * 256U * sizeof(float));
}

TEST(BenchHistory, RowCarriesNonBlankSourceLines) {
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() / "fms_bench_src_loc";
  fs::remove_all(root);
  fs::create_directories(root / "sub");
  std::ofstream(root / "a.h") << "#pragma once\n\n   \nint a();\n";
  std::ofstream(root / "sub" / "b.cpp") << "int a() {\n\treturn 1;\n}\n\n";
  std::ofstream(root / "sub" / "notes.md") << "not source\n";
  const std::uint64_t loc = fms::bench::count_source_lines(root.string());
  fs::remove_all(root);
  EXPECT_EQ(loc, 5U);  // 2 in a.h + 3 in b.cpp; blank and .md skipped
  EXPECT_THROW(fms::bench::count_source_lines(root.string()),
               fms::CheckError);

  const std::string row = fms::bench::history_row_json(
      {make_result("agg.mean", 10.0)}, "abc", 7, loc);
  EXPECT_NE(row.find("\"src_loc\": 5,"), std::string::npos) << row;
  EXPECT_EQ(row.find('\n'), std::string::npos);  // one JSONL line
}

TEST(BenchHistory, GitShaWithControlCharactersStaysOneLineAndReadsBack) {
  const std::string sha = "abc\n123\x01\x1f\t\"q\"\\";
  const std::string row = fms::bench::history_row_json(
      {make_result("agg.mean", 10.0)}, sha, 7, 5);
  EXPECT_EQ(row.find('\n'), std::string::npos) << row;  // one JSONL line
  fms::obs::JsonValue parsed;
  ASSERT_TRUE(fms::obs::parse_json(row, &parsed)) << row;
  EXPECT_EQ(parsed.string_or("git_sha", ""), sha);
}

TEST(BenchHarness, DefaultSuiteHasAtLeastTwelveUniqueBenchmarks) {
  const std::vector<Benchmark> suite = fms::bench::default_benchmarks();
  EXPECT_GE(suite.size(), 12U);
  std::vector<std::string> names;
  for (const Benchmark& b : suite) names.push_back(b.name);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

}  // namespace
