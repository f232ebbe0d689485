// Tests for the telemetry subsystem (src/obs): histogram buckets and
// quantiles, counter/gauge concurrency under the thread pool, JSONL trace
// output, span recording, and the disabled-telemetry fast path.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/obs/sinks.h"
#include "src/obs/telemetry.h"

namespace fms::obs {
namespace {

// Each test drives the process-global Telemetry context; start from a
// clean slate so ordering does not matter.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_telemetry_enabled(false);
    Telemetry::instance().clear_sinks();
    Telemetry::instance().registry().reset();
    Telemetry::instance().set_label("");
  }
  void TearDown() override { SetUp(); }
};

// Minimal structural validator for one JSON object per line: balanced
// braces outside strings, even number of unescaped quotes, object form.
bool looks_like_json_object(const std::string& line) {
  if (line.empty() || line.front() != '{' || line.back() != '}') return false;
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : line) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '"') {
      in_string = !in_string;
      continue;
    }
    if (in_string) continue;
    if (c == '{') ++depth;
    if (c == '}') {
      --depth;
      if (depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST_F(ObsTest, CounterAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsTest, GaugeSetsAndAdds) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
}

TEST_F(ObsTest, HistogramBucketsAndStats) {
  Histogram h({1.0, 2.0, 4.0, 8.0});
  for (double x : {0.5, 1.5, 1.7, 3.0, 9.0}) h.observe(x);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 15.7);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 9.0);
  // Buckets: (-inf,1], (1,2], (2,4], (4,8], (8,inf).
  const std::vector<std::uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 5u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 0u);
  EXPECT_EQ(counts[4], 1u);
}

TEST_F(ObsTest, HistogramQuantilesInterpolate) {
  // 100 observations spread one per unit across ten linear buckets: the
  // quantile estimate must land within one bucket width of the truth.
  std::vector<double> bounds;
  for (int b = 10; b <= 100; b += 10) bounds.push_back(b);
  Histogram h(bounds);
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_NEAR(h.quantile(0.50), 50.0, 10.0);
  EXPECT_NEAR(h.quantile(0.95), 95.0, 10.0);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 10.0);
  // Quantiles are clamped to the observed range and ordered.
  EXPECT_GE(h.quantile(0.0), 1.0);
  EXPECT_LE(h.quantile(1.0), 100.0);
  EXPECT_LE(h.quantile(0.5), h.quantile(0.95));
  // Empty histogram is defined and returns zero.
  Histogram empty({1.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

TEST_F(ObsTest, HistogramQuantileSingleBucketUsesMinMax) {
  Histogram h({1000.0});
  for (double x : {10.0, 20.0, 30.0, 40.0}) h.observe(x);
  // Everything lands in one bucket; interpolation is clamped to [10, 40].
  EXPECT_GE(h.quantile(0.5), 10.0);
  EXPECT_LE(h.quantile(0.5), 40.0);
}

TEST_F(ObsTest, RegistryReturnsStableInstruments) {
  MetricsRegistry reg;
  Counter& a = reg.counter("a");
  Counter& a2 = reg.counter("a");
  EXPECT_EQ(&a, &a2);
  a.add(3);
  EXPECT_EQ(reg.counter("a").value(), 3u);
  // Histogram bounds are fixed by the first creation.
  Histogram& h = reg.histogram("h", {1.0, 2.0});
  Histogram& h2 = reg.histogram("h", {5.0});
  EXPECT_EQ(&h, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
  EXPECT_EQ(reg.find_histogram("h"), &h);
  EXPECT_EQ(reg.find_histogram("missing"), nullptr);
}

TEST_F(ObsTest, CountersAndHistogramsAreThreadSafeUnderPool) {
  MetricsRegistry reg;
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 256;
  constexpr int kPerTask = 50;
  pool.parallel_for(kTasks, [&](std::size_t i) {
    // Mixed named lookups exercise the registry mutex; add/observe
    // exercise the lock-free instrument paths.
    Counter& c = reg.counter("pool.counter");
    Histogram& h = reg.histogram("pool.hist", {0.25, 0.5, 0.75, 1.0});
    Gauge& g = reg.gauge("pool.gauge");
    for (int j = 0; j < kPerTask; ++j) {
      c.add();
      h.observe(static_cast<double>((i + static_cast<std::size_t>(j)) % 100) /
                100.0);
      g.add(1.0);
    }
  });
  EXPECT_EQ(reg.counter("pool.counter").value(), kTasks * kPerTask);
  EXPECT_EQ(reg.histogram("pool.hist").count(), kTasks * kPerTask);
  EXPECT_DOUBLE_EQ(reg.gauge("pool.gauge").value(),
                   static_cast<double>(kTasks * kPerTask));
  std::uint64_t bucket_total = 0;
  for (std::uint64_t b : reg.histogram("pool.hist").bucket_counts()) {
    bucket_total += b;
  }
  EXPECT_EQ(bucket_total, kTasks * kPerTask);
}

TEST_F(ObsTest, JsonlWriterEmitsOneParsableObjectPerLine) {
  const std::string path = "fms_test_trace.jsonl";
  set_telemetry_enabled(true);
  auto writer = std::make_shared<JsonlTraceWriter>(path);
  Telemetry::instance().add_sink(writer);
  Telemetry::instance().set_round(7);

  { FMS_SPAN("unit_phase"); }
  TraceEvent round_ev;
  round_ev.type = "round";
  round_ev.name = "round";
  round_ev.round = 7;
  round_ev.fields = {{"mean_reward", 0.5}, {"arrived", 10.0}};
  Telemetry::instance().emit(std::move(round_ev));
  TraceEvent meta;
  meta.type = "meta";
  meta.name = "needs \"escaping\"\n";
  Telemetry::instance().emit(std::move(meta));
  writer->flush();
  EXPECT_EQ(writer->events_written(), 3u);

  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string line;
  int lines = 0;
  bool saw_span = false, saw_round = false;
  while (std::getline(f, line)) {
    ++lines;
    EXPECT_TRUE(looks_like_json_object(line)) << line;
    if (line.find("\"type\":\"span\"") != std::string::npos) saw_span = true;
    if (line.find("\"type\":\"round\"") != std::string::npos) saw_round = true;
  }
  EXPECT_EQ(lines, 3);
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_round);
  std::remove(path.c_str());
}

TEST_F(ObsTest, SpanRecordsDurationHistogramAndRoundTag) {
  set_telemetry_enabled(true);
  {
    FMS_SPAN("timed_phase");
    volatile double sink = 0.0;
    for (int i = 0; i < 1000; ++i) sink = sink + 1.0;
  }
  const Histogram* h =
      Telemetry::instance().registry().find_histogram("span.timed_phase");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_GT(h->sum(), 0.0);
  EXPECT_LT(h->sum(), 10.0);  // sanity: well under ten seconds
}

TEST_F(ObsTest, DisabledTelemetryProducesZeroEvents) {
  const std::string path = "fms_test_disabled_trace.jsonl";
  auto writer = std::make_shared<JsonlTraceWriter>(path);
  Telemetry::instance().add_sink(writer);
  ASSERT_FALSE(telemetry_enabled());

  { FMS_SPAN("dead_phase"); }
  TraceEvent ev;
  ev.type = "round";
  ev.name = "round";
  Telemetry::instance().emit(std::move(ev));

  EXPECT_EQ(writer->events_written(), 0u);
  EXPECT_EQ(Telemetry::instance().registry().find_histogram("span.dead_phase"),
            nullptr);
  std::remove(path.c_str());
}

TEST_F(ObsTest, ConfigureInstallsSinksAndFinishWritesCsv) {
  const std::string trace = "fms_test_cfg_trace.jsonl";
  const std::string csv = "fms_test_cfg_metrics.csv";
  TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.trace_jsonl_path = trace;
  cfg.metrics_csv_path = csv;
  Telemetry::instance().configure(cfg);
  EXPECT_TRUE(telemetry_enabled());
  EXPECT_EQ(Telemetry::instance().num_sinks(), 1u);

  Telemetry::instance().registry().counter("fms.updates.arrived").add(12);
  Telemetry::instance().registry().gauge("fms.policy.baseline").set(0.4);
  Telemetry::instance()
      .registry()
      .histogram("span.sample", {0.001, 0.01})
      .observe(0.002);
  Telemetry::instance().finish();

  std::ifstream f(csv);
  ASSERT_TRUE(f.good());
  std::string header;
  std::getline(f, header);
  EXPECT_EQ(header, "metric,type,value,count,sum,min,max,p50,p95,p99");
  int rows = 0;
  std::string line;
  bool saw_counter = false;
  while (std::getline(f, line)) {
    ++rows;
    if (line.rfind("fms.updates.arrived,counter,12", 0) == 0) {
      saw_counter = true;
    }
  }
  EXPECT_EQ(rows, 3);
  EXPECT_TRUE(saw_counter);
  std::remove(trace.c_str());
  std::remove(csv.c_str());
}

// Counts and byte totals above six significant digits must survive the
// CSV exactly: operator<< would have written 1.23457e+08.
TEST_F(ObsTest, MetricsCsvKeepsExactCounts) {
  const std::string csv = "fms_test_exact_metrics.csv";
  MetricsRegistry registry;
  registry.counter("fms.bytes.down").add(123456789);
  registry.gauge("fms.alloc.total_bytes").set(1890070016.0);
  registry.write_csv(csv);

  std::ifstream f(csv);
  ASSERT_TRUE(f.good());
  std::string line;
  std::getline(f, line);  // header
  std::map<std::string, std::string> value_of;
  while (std::getline(f, line)) {
    const std::size_t c1 = line.find(',');
    const std::size_t c2 = line.find(',', c1 + 1);
    const std::size_t c3 = line.find(',', c2 + 1);
    value_of[line.substr(0, c1)] = line.substr(c2 + 1, c3 - c2 - 1);
  }
  EXPECT_EQ(value_of["fms.bytes.down"], "123456789");
  EXPECT_EQ(value_of["fms.alloc.total_bytes"], "1890070016");
  EXPECT_EQ(std::stoull(value_of["fms.bytes.down"]), 123456789ULL);
  EXPECT_EQ(std::stoull(value_of["fms.alloc.total_bytes"]), 1890070016ULL);
  std::remove(csv.c_str());
}

TEST_F(ObsTest, ConsoleRoundSinkHonorsCadence) {
  // Route the console sink to a temp FILE and count emitted lines.
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  ConsoleRoundSink sink(10, tmp);
  for (int r = 0; r < 25; ++r) {
    TraceEvent ev;
    ev.type = "round";
    ev.name = "round";
    ev.round = r;
    ev.fields = {{"mean_reward", 0.1}, {"moving_avg", 0.2}, {"arrived", 4.0},
                 {"dropped", 0.0}};
    sink.write(ev);
  }
  sink.flush();
  std::rewind(tmp);
  int lines = 0;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), tmp) != nullptr) ++lines;
  std::fclose(tmp);
  EXPECT_EQ(lines, 3);  // rounds 0, 10, 20
}

TEST_F(ObsTest, SpanBucketsPinSubMillisecondQuantileError) {
  // FMS_SPAN histograms use the dense 12-per-decade grid: on the coarse
  // 1-2-5 grid every sub-millisecond zone collapses into one or two
  // buckets and interpolated p99 is off by up to ~60%. Pin the grid's
  // shape and its promised error bound on synthetic sub-ms durations.
  const std::vector<double> edges = default_span_buckets();
  ASSERT_GE(edges.size(), 100U);
  EXPECT_DOUBLE_EQ(edges.front(), 1e-7);
  EXPECT_NEAR(edges.back(), 100.0, 5.0);
  const double ratio = std::pow(10.0, 1.0 / 12.0);
  for (std::size_t i = 1; i < edges.size(); ++i) {
    EXPECT_NEAR(edges[i] / edges[i - 1], ratio, 1e-9) << "edge " << i;
  }

  Histogram h(edges);
  constexpr int kN = 2000;
  std::vector<double> values;
  values.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    // 50us .. 950us, uniform — the regime the old grid flattened.
    const double v = 50e-6 + (900e-6 * i) / (kN - 1);
    values.push_back(v);
    h.observe(v);
  }
  for (const double q : {0.50, 0.90, 0.95, 0.99}) {
    const double exact = values[static_cast<std::size_t>(q * (kN - 1))];
    const double est = h.quantile(q);
    EXPECT_NEAR(est, exact, 0.10 * exact) << "q = " << q;
  }
}

TEST_F(ObsTest, DefaultBucketHelpers) {
  const std::vector<double> t = default_time_buckets();
  ASSERT_FALSE(t.empty());
  for (std::size_t i = 1; i < t.size(); ++i) EXPECT_GT(t[i], t[i - 1]);
  EXPECT_DOUBLE_EQ(t.front(), 1e-6);
  EXPECT_DOUBLE_EQ(t.back(), 100.0);
  const std::vector<double> lin = linear_buckets(5);
  ASSERT_EQ(lin.size(), 6u);
  EXPECT_DOUBLE_EQ(lin[0], 0.0);
  EXPECT_DOUBLE_EQ(lin[5], 5.0);
}

}  // namespace
}  // namespace fms::obs
