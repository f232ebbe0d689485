// Tests for the shared JSON codec (src/obs/json.*): the number rule
// every writer uses, string escapes that read back exactly, profile
// counters that survive a trace round trip to the last digit, and a
// seeded corruption fuzz over the report's committed input fixtures
// that no reader may crash on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/obs/json.h"
#include "src/obs/report.h"
#include "src/obs/sinks.h"
#include "tools/fms_bench/bench.h"

namespace fms::obs {
namespace {

std::string number(double v) {
  std::string out;
  json_number(out, v);
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary) << text;
}

TEST(JsonCodec, IntegersBelowNineE15AreExactEverythingElseNineDigits) {
  EXPECT_EQ(number(999999999.0), "999999999");
  EXPECT_EQ(number(1e9), "1000000000");  // %.9g alone: 1e+09
  EXPECT_EQ(number(12345678901.0), "12345678901");
  EXPECT_EQ(number(8999999999999999.0), "8999999999999999");
  EXPECT_EQ(number(-42.0), "-42");
  EXPECT_EQ(number(-0.0), "-0");
  EXPECT_EQ(number(0.5), "0.5");
  EXPECT_EQ(number(0.1 + 0.2), "0.3");
  EXPECT_EQ(number(1.0 / 3.0), "0.333333333");
  EXPECT_EQ(number(9007199254740992.0), "9.00719925e+15");  // 2^53
  EXPECT_EQ(number(1e30), "1e+30");
  EXPECT_EQ(number(std::nan("")), "0");
  EXPECT_EQ(number(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(number(-std::numeric_limits<double>::infinity()), "0");
}

TEST(JsonCodec, EscapedStringsReadBackExactly) {
  std::string s = "quote \" backslash \\ slash / ";
  for (int c = 1; c < 0x20; ++c) s += static_cast<char>(c);
  const std::string literal = "\"" + json_escape(s) + "\"";
  for (const char c : literal) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "raw control char";
  }
  JsonValue v;
  ASSERT_TRUE(parse_json(literal, &v));
  ASSERT_EQ(v.kind, JsonValue::Kind::kString);
  EXPECT_EQ(v.str, s);
}

TEST(JsonCodec, DeepNestingIsRejectedNotAStackOverflow) {
  JsonValue v;
  EXPECT_TRUE(parse_json(std::string(64, '[') + std::string(64, ']'), &v));
  EXPECT_FALSE(parse_json(std::string(65, '[') + std::string(65, ']'), &v));
  EXPECT_FALSE(parse_json(std::string(200000, '['), &v));
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_FALSE(parse_json(objects, &v));
}

TEST(JsonCodec, IntegerAccessorTakesOnlyExactValuesInRange) {
  JsonValue v;
  ASSERT_TRUE(parse_json(
      R"({"ok": 12345678901, "neg": -1, "frac": 2.5, "big": 1e30,)"
      R"( "str": "7", "top": 18446744073709551616})",
      &v));
  std::uint64_t u = 7;
  EXPECT_TRUE(v.integer("ok", &u));
  EXPECT_EQ(u, 12345678901ULL);
  for (const char* key : {"neg", "frac", "big", "str", "top", "absent"}) {
    u = 7;
    EXPECT_FALSE(v.integer(key, &u)) << key;
    EXPECT_EQ(u, 7U) << key;  // untouched on failure
  }
  int i = 0;
  EXPECT_TRUE(v.integer("neg", &i));
  EXPECT_EQ(i, -1);
  EXPECT_FALSE(v.integer("ok", &i));  // beyond int
}

TEST(JsonCodec, ProfileCountersSurviveTheTraceExactly) {
  const std::string path = ::testing::TempDir() + "/fms_json_profile.jsonl";
  {
    JsonlTraceWriter writer(path);
    TraceEvent ev;
    ev.type = "profile";
    ev.name = "round/local_train";
    ev.round = 29;
    ev.fields = {{"flops", 98765432109.0}, {"incl_ns", 12345678901.0}};
    writer.write(ev);
  }
  std::string line = slurp(path);
  ASSERT_FALSE(line.empty());
  line.pop_back();  // '\n'
  JsonValue v;
  ASSERT_TRUE(parse_json(line, &v)) << line;
  std::uint64_t flops = 0;
  std::uint64_t incl_ns = 0;
  ASSERT_TRUE(v.integer("flops", &flops)) << line;
  ASSERT_TRUE(v.integer("incl_ns", &incl_ns)) << line;
  EXPECT_EQ(flops, 98765432109ULL);
  EXPECT_EQ(incl_ns, 12345678901ULL);
  std::remove(path.c_str());
}

// Seeded corruption fuzz over the committed report fixtures, like the
// checkpoint fuzz in test_flops_checkpoint.cpp: truncations (torn
// writes) and 1-4 byte flips. Whatever the bytes, parse_json returns,
// parse_bench_json returns or throws CheckError, and the report renders.
TEST(JsonCodec, CorruptReportInputsNeverCrashTheReaders) {
  const std::string golden = std::string(FMS_TEST_GOLDEN_DIR) + "/report";
  const std::string dir = ::testing::TempDir();
  const std::pair<const char*, std::string ReportInputs::*> targets[] = {
      {"bench.json", &ReportInputs::bench_json_path},
      {"trace.jsonl", &ReportInputs::trace_jsonl_path},
      {"peak.json", &ReportInputs::peak_json_path},
      {"health.json", &ReportInputs::health_json_path}};
  Rng fuzz(0xF024);
  for (const auto& [name, member] : targets) {
    const std::string good = slurp(golden + "/" + name);
    ASSERT_FALSE(good.empty()) << name;
    const std::string bad_path = dir + "/fms_fuzz_" + name;
    ReportInputs inputs;
    inputs.trace_jsonl_path = golden + "/trace.jsonl";
    inputs.metrics_csv_path = golden + "/metrics.csv";
    inputs.health_json_path = golden + "/health.json";
    inputs.bench_json_path = golden + "/bench.json";
    inputs.history_jsonl_path = golden + "/history.jsonl";
    inputs.peak_json_path = golden + "/peak.json";
    inputs.*member = bad_path;  // the one corrupted input
    for (int trial = 0; trial < 150; ++trial) {
      SCOPED_TRACE(std::string(name) + " trial " + std::to_string(trial));
      std::string bad = good;
      if (trial % 3 == 0) {
        bad.resize(static_cast<std::size_t>(
            fuzz.randint(0, static_cast<int>(bad.size()) - 1)));
      } else {
        const int flips = fuzz.randint(1, 4);
        for (int f = 0; f < flips; ++f) {
          const auto idx = static_cast<std::size_t>(
              fuzz.randint(0, static_cast<int>(bad.size()) - 1));
          bad[idx] = static_cast<char>(static_cast<unsigned char>(bad[idx]) ^
                                       fuzz.randint(1, 255));
        }
      }
      JsonValue v;
      parse_json(bad, &v);
      std::istringstream lines(bad);
      for (std::string line; std::getline(lines, line);) {
        JsonValue lv;
        parse_json(line, &lv);
      }
      try {
        bench::parse_bench_json(bad);
      } catch (const CheckError&) {
        // the one allowed failure
      }
      write_file(bad_path, bad);
      const std::string html = generate_report_html(inputs);
      EXPECT_NE(html.find("</html>"), std::string::npos);
    }
    std::remove(bad_path.c_str());
  }
}

}  // namespace
}  // namespace fms::obs
