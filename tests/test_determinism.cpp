// The determinism contract, selected with `ctest -L determinism`: one
// short seeded search must produce byte-identical results in every cell
// of the matrix
//
//   threads {1, 2, 4}
//   x instrumentation {all off, all on}
//   x plan {clean, fault + churn + Byzantine at quorum 0.75 with DC}
//   x run {uninterrupted, dropped after round j and recover()ed},
//
// plus one cell dropped at 4 threads and recover()ed at 1, and the
// hostile plan under trimmed_mean:2 and with int8 payloads at threads
// {1, 4}. Per plan,
// every cell is compared against the uninstrumented uninterrupted run at
// one thread on four artifacts: the serialized canonical RoundRecords,
// the genotype string, the final checkpoint blob and the journal files
// (live + `.prev`). A second test pins the JSONL trace itself across
// thread counts. The label rides the CI sanitizer matrix (ASan/UBSan and
// TSan) like the other labelled binaries, so TSan races every cell.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "src/agg/aggregator.h"
#include "src/common/serialize.h"
#include "src/core/search.h"
#include "src/data/synth.h"
#include "src/obs/alloc.h"
#include "src/obs/profile.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace_ctx.h"

namespace fms {
namespace {

constexpr int kWarmup = 1;
constexpr int kSearch = 9;
// Rounds committed (warm-up included) before the search is dropped; the
// auto-checkpoint at round 3 leaves rounds 3..4 for journal replay.
constexpr int kDropAfter = 5;

struct World {
  TrainTest data;
  std::vector<std::vector<int>> partition;
  SearchConfig cfg;
};

// Callers must keep the returned World at a stable address before
// constructing a FederatedSearch from it: participants keep pointers into
// `data`.
World make_world() {
  Rng rng(61);
  SynthSpec spec;
  spec.train_size = 160;
  spec.test_size = 40;
  spec.image_size = 8;
  TrainTest data = make_synth_c10(spec, rng);
  SearchConfig cfg;
  cfg.supernet.num_cells = 3;
  cfg.supernet.num_nodes = 2;
  cfg.supernet.stem_channels = 4;
  cfg.supernet.image_size = 8;
  cfg.schedule.batch_size = 8;
  cfg.schedule.num_participants = 6;
  cfg.seed = 61;
  auto partition =
      iid_partition(data.train.size(), cfg.schedule.num_participants, rng);
  return World{std::move(data), std::move(partition), cfg};
}

// `aggregator` names the estimator (the mean when empty); `codec`
// compresses both payloads.
SearchOptions plan_options(bool hostile, const std::string& dir,
                           const std::string& aggregator = "",
                           Codec codec = Codec::kFloat32) {
  SearchOptions opts;
  opts.codec = codec;
  opts.checkpoint_every = 3;
  opts.checkpoint_path = dir + "/ck.bin";
  if (!aggregator.empty()) {
    opts.aggregator = agg::AggregatorConfig::parse(aggregator);
  }
  if (!hostile) return opts;
  opts.stale_policy = StalePolicy::kCompensate;
  opts.staleness = StalenessDistribution::severe();
  opts.quorum = 0.75;
  opts.fault_plan = FaultPlan::parse(
      "dropout=0.1,link=0.5,uplink=0.3,corrupt=0.15,divergent=0.4,"
      "sign_flip=0.2,reward_attack=0.2,seed=3");
  opts.churn_plan = ChurnPlan::parse("leave=0.15,away_min=1,away_max=2,seed=4");
  return opts;
}

// Every instrumentation layer at once: telemetry sinks, profiler + alloc
// ledger, causal tracing with a Chrome export, flight recorder, health.
void instrument(SearchConfig& cfg, const std::string& dir) {
  cfg.telemetry.enabled = true;
  cfg.telemetry.trace_jsonl_path = dir + "/trace.jsonl";
  cfg.telemetry.metrics_csv_path = dir + "/metrics.csv";
  cfg.telemetry.profile = true;
  cfg.telemetry.trace_chrome_path = dir + "/chrome.json";
  cfg.telemetry.flight_recorder = 16;
  cfg.telemetry.flight_dump_path = dir + "/flight.jsonl";
  cfg.telemetry.health = true;
  cfg.telemetry.health_report_path = dir + "/health.json";
}

// The process-global observability state a FederatedSearch configures
// and its destructor only flushes.
void reset_globals() {
  obs::set_telemetry_enabled(false);
  obs::set_profiling_enabled(false);
  obs::set_tracing_enabled(false);
  obs::reset_profiler();
  obs::reset_alloc_stats();
  obs::TraceContext::instance().reset();
  obs::Telemetry::instance().clear_sinks();
  obs::Telemetry::instance().registry().reset();
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

struct Outcome {
  std::vector<std::uint8_t> records;  // canonical RoundRecords, in order
  std::string genotype;
  std::vector<std::uint8_t> checkpoint;
  std::vector<std::uint8_t> journal;
  std::vector<std::uint8_t> journal_prev;
  int dropped = 0;  // plan sanity: updates the round loop lost
  int rejected = 0;
  int stale = 0;
  int left = 0;
  long trimmed = 0;  // coordinates the robust estimator trimmed
};

void append(Outcome& out, const std::vector<RoundRecord>& records) {
  ByteWriter w;
  for (const RoundRecord& rec : records) {
    rec.canonical().serialize(w);
    out.dropped += rec.dropped;
    out.rejected += rec.rejected;
    out.stale += rec.stale_arrived;
    out.left += rec.left;
    out.trimmed += rec.agg_trimmed;
  }
  out.records.insert(out.records.end(), w.bytes().begin(), w.bytes().end());
}

// One matrix cell. `threads` trains the search; a recovered cell's
// second process trains on `recover_threads`.
struct Cell {
  bool instrumented = false;
  bool recovered = false;
  int threads = 1;
  int recover_threads = 1;
};

Outcome run_cell(const Cell& c, bool hostile, const std::string& name,
                 const std::string& aggregator = "",
                 Codec codec = Codec::kFloat32) {
  const std::string dir = ::testing::TempDir() + "/fms_det_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  World w = make_world();
  if (c.instrumented) instrument(w.cfg, dir);
  const bool recovered = c.recovered;
  const SearchOptions opts = plan_options(hostile, dir, aggregator, codec);
  const std::string journal = dir + "/wal.bin";
  Outcome out;
  int search_left = kSearch;
  {
    w.cfg.threads = c.threads;
    FederatedSearch first(w.cfg, w.data.train, w.partition);
    first.enable_journal(journal, opts.fault_plan);
    append(out, first.run_warmup(kWarmup));
    const int before_drop = recovered ? kDropAfter - kWarmup : kSearch;
    append(out, first.run_search(before_drop, opts));
    search_left -= before_drop;
    if (!recovered) {
      out.genotype = first.derive().to_string();
      out.checkpoint = first.checkpoint().serialize();
    }
  }  // a dropped search leaves only its files behind
  if (recovered) {
    w.cfg.threads = c.recover_threads;
    FederatedSearch second(w.cfg, w.data.train, w.partition);
    FederatedSearch::RecoverConfig rc;
    rc.checkpoint_path = opts.checkpoint_path;
    rc.journal_path = journal;
    rc.warmup_rounds = kWarmup;
    rc.search = opts;
    const FederatedSearch::RecoveryReport report = second.recover(rc);
    EXPECT_TRUE(report.checkpoint_loaded);
    EXPECT_GT(report.replayed_rounds, 0);
    append(out, second.run_search(search_left, opts));
    out.genotype = second.derive().to_string();
    out.checkpoint = second.checkpoint().serialize();
  }
  out.journal = read_bytes(journal);
  out.journal_prev = read_bytes(journal + ".prev");
  reset_globals();
  std::filesystem::remove_all(dir);
  return out;
}

class DeterminismTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { reset_globals(); }
  void TearDown() override { reset_globals(); }
};

TEST_P(DeterminismTest, EveryCellIsByteIdentical) {
  const bool hostile = GetParam();
  const std::string plan = hostile ? "hostile" : "clean";
  const Outcome ref = run_cell(Cell{}, hostile, plan + "_ref");
  ASSERT_FALSE(ref.records.empty());
  ASSERT_FALSE(ref.journal.empty());
  ASSERT_FALSE(ref.journal_prev.empty());
  if (hostile) {
    // The hostile plan has to lose, reject, delay and churn updates, or
    // its cells would only repeat the clean ones.
    EXPECT_GT(ref.dropped, 0);
    EXPECT_GT(ref.rejected, 0);
    EXPECT_GT(ref.stale, 0);
    EXPECT_GT(ref.left, 0);
  } else {
    EXPECT_EQ(ref.dropped, 0);
    EXPECT_EQ(ref.rejected, 0);
  }

  std::vector<std::pair<Cell, std::string>> cells;
  for (const int t : {1, 2, 4}) {
    const std::string tn = "_t" + std::to_string(t);
    if (t > 1) cells.push_back({Cell{false, false, t, t}, "plain" + tn});
    cells.push_back({Cell{true, false, t, t}, "instrumented" + tn});
    cells.push_back({Cell{false, true, t, t}, "recovered" + tn});
    cells.push_back({Cell{true, true, t, t}, "instrumented_recovered" + tn});
  }
  cells.push_back({Cell{false, true, 4, 1}, "dropped_t4_recovered_t1"});
  for (const auto& [c, name] : cells) {
    SCOPED_TRACE(plan + "/" + name);
    const Outcome got = run_cell(c, hostile, plan + "_" + name);
    EXPECT_EQ(got.records, ref.records);
    EXPECT_EQ(got.genotype, ref.genotype);
    EXPECT_EQ(got.checkpoint, ref.checkpoint);
    EXPECT_EQ(got.journal, ref.journal);
    EXPECT_EQ(got.journal_prev, ref.journal_prev);
  }
}

// The JSONL trace of a 3-round search, with span durations stripped: the
// span events participants emit on pool workers are buffered and
// re-emitted in participant order, so the file cannot depend on the
// thread count or on scheduling.
std::string trace_without_durations(int threads, const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/fms_det_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  World w = make_world();
  w.cfg.threads = threads;
  w.cfg.telemetry.enabled = true;
  w.cfg.telemetry.trace_jsonl_path = dir + "/trace.jsonl";
  {
    FederatedSearch search(w.cfg, w.data.train, w.partition);
    search.run_warmup(1);
    search.run_search(2, plan_options(/*hostile=*/true, dir));
  }
  std::ifstream in(dir + "/trace.jsonl");
  std::string out;
  std::string line;
  const std::string key = "\"dur_s\":";
  while (std::getline(in, line)) {
    const std::size_t at = line.find(key);
    if (at != std::string::npos) {
      const std::size_t end = line.find_first_of(",}", at + key.size());
      line.erase(at + key.size(), end - at - key.size());
    }
    out += line;
    out += '\n';
  }
  reset_globals();
  std::filesystem::remove_all(dir);
  return out;
}

class TraceDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { reset_globals(); }
  void TearDown() override { reset_globals(); }
};

TEST_F(TraceDeterminismTest, JsonlIsByteIdenticalAcrossThreadCounts) {
  const std::string serial = trace_without_durations(1, "trace_t1");
  EXPECT_NE(serial.find("\"name\":\"local_train\""), std::string::npos);
  EXPECT_NE(serial.find("\"name\":\"prune\""), std::string::npos);
  EXPECT_EQ(trace_without_durations(4, "trace_t4"), serial);
}

class RobustDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { reset_globals(); }
  void TearDown() override { reset_globals(); }
};

// The hostile plan under a robust estimator: trimmed_mean:2 sends every
// round's arrivals through the per-tensor lane core, whose result must not
// depend on the thread count the participants trained on, nor on a
// kill-and-recover in between.
TEST_F(RobustDeterminismTest, TrimmedMeanCellsAreByteIdenticalAcrossThreads) {
  const std::string spec = "trimmed_mean:2";
  const Outcome ref = run_cell(Cell{}, /*hostile=*/true, "trimmed_ref", spec);
  ASSERT_FALSE(ref.records.empty());
  EXPECT_GT(ref.trimmed, 0);
  EXPECT_GT(ref.dropped, 0);
  const std::vector<std::pair<Cell, std::string>> cells = {
      {Cell{false, false, 4, 4}, "trimmed_plain_t4"},
      {Cell{false, true, 1, 1}, "trimmed_recovered_t1"},
      {Cell{false, true, 4, 4}, "trimmed_recovered_t4"}};
  for (const auto& [c, name] : cells) {
    SCOPED_TRACE(name);
    const Outcome got = run_cell(c, /*hostile=*/true, name, spec);
    EXPECT_EQ(got.records, ref.records);
    EXPECT_EQ(got.genotype, ref.genotype);
    EXPECT_EQ(got.checkpoint, ref.checkpoint);
    EXPECT_EQ(got.journal, ref.journal);
    EXPECT_EQ(got.journal_prev, ref.journal_prev);
  }
}

// The hostile plan with int8 payloads both ways: every participant runs
// the lane quantizer on its download and its upload on a pool worker, and
// corrupt faults flip bits after it, so the codec's output must not depend
// on the thread count nor on a kill-and-recover in between.
TEST_F(RobustDeterminismTest, Int8CodecCellsAreByteIdenticalAcrossThreads) {
  const Outcome ref =
      run_cell(Cell{}, /*hostile=*/true, "int8_ref", "", Codec::kInt8);
  ASSERT_FALSE(ref.records.empty());
  EXPECT_GT(ref.dropped, 0);
  EXPECT_GT(ref.rejected, 0);
  const std::vector<std::pair<Cell, std::string>> cells = {
      {Cell{false, false, 4, 4}, "int8_plain_t4"},
      {Cell{false, true, 1, 1}, "int8_recovered_t1"},
      {Cell{false, true, 4, 4}, "int8_recovered_t4"}};
  for (const auto& [c, name] : cells) {
    SCOPED_TRACE(name);
    const Outcome got = run_cell(c, /*hostile=*/true, name, "", Codec::kInt8);
    EXPECT_EQ(got.records, ref.records);
    EXPECT_EQ(got.genotype, ref.genotype);
    EXPECT_EQ(got.checkpoint, ref.checkpoint);
    EXPECT_EQ(got.journal, ref.journal);
    EXPECT_EQ(got.journal_prev, ref.journal_prev);
  }
}

INSTANTIATE_TEST_SUITE_P(Plans, DeterminismTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Hostile" : "Clean";
                         });

}  // namespace
}  // namespace fms
