// Causal round tracing (src/obs/trace_ctx) and the crash flight recorder
// (src/obs/flight): deterministic trace/span ids, sim-time clock
// semantics, the Chrome trace-event exporter pinned by a golden file,
// ring-buffer eviction and dump format, and — the load-bearing
// guarantee — bit-identical search results with tracing on versus off.
// Selected with `ctest -L health` alongside the monitor tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/search.h"
#include "src/data/synth.h"
#include "src/obs/flight.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace_ctx.h"

namespace fms {
namespace {

// Every test drives the process-global trace context; start and end clean
// so ordering between tests (and other test files) is moot.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_tracing_enabled(false);
    obs::set_telemetry_enabled(false);
    obs::TraceContext::instance().reset();
    obs::Telemetry::instance().clear_sinks();
    obs::Telemetry::instance().registry().reset();
  }
  void TearDown() override { SetUp(); }
};

struct TinyWorld {
  TrainTest data;
  std::vector<std::vector<int>> partition;
  SearchConfig cfg;
};

// Callers must keep the returned TinyWorld at a stable address before
// constructing a FederatedSearch from it: participants keep pointers
// into `data`.
TinyWorld make_tiny_world(std::uint64_t seed) {
  Rng rng(seed);
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
  cfg.schedule.num_participants = 4;
  cfg.seed = seed;
  auto partition =
      iid_partition(data.train.size(), cfg.schedule.num_participants, rng);
  return TinyWorld{std::move(data), std::move(partition), cfg};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- deterministic ids ---

TEST_F(TraceTest, TraceAndSpanIdsArePureFunctions) {
  EXPECT_EQ(obs::make_trace_id(7, 3), obs::make_trace_id(7, 3));
  EXPECT_NE(obs::make_trace_id(7, 3), obs::make_trace_id(7, 4));
  EXPECT_NE(obs::make_trace_id(7, 3), obs::make_trace_id(8, 3));
  // Round 0 must not degenerate to the seed-only hash.
  EXPECT_NE(obs::make_trace_id(7, 0), obs::make_trace_id(7, -1));

  const std::uint64_t t = obs::make_trace_id(7, 3);
  EXPECT_EQ(obs::make_span_id(t, 1, obs::Stage::kArrive),
            obs::make_span_id(t, 1, obs::Stage::kArrive));
  EXPECT_NE(obs::make_span_id(t, 1, obs::Stage::kArrive),
            obs::make_span_id(t, 2, obs::Stage::kArrive));
  EXPECT_NE(obs::make_span_id(t, 1, obs::Stage::kArrive),
            obs::make_span_id(t, 1, obs::Stage::kScreen));
  // The server (-1) gets its own id space.
  EXPECT_NE(obs::make_span_id(t, -1, obs::Stage::kQuorum),
            obs::make_span_id(t, 0, obs::Stage::kQuorum));
}

TEST_F(TraceTest, StageNamesAreStable) {
  EXPECT_STREQ(obs::stage_name(obs::Stage::kDispatch), "dispatch");
  EXPECT_STREQ(obs::stage_name(obs::Stage::kLocalTrain), "local_train");
  EXPECT_STREQ(obs::stage_name(obs::Stage::kQuorum), "quorum");
  EXPECT_STREQ(obs::stage_name(obs::Stage::kDrop), "drop");
}

// --- TraceContext clock + id stamping ---

TEST_F(TraceTest, RecordStampsSimTimeAndCohortTraceIds) {
  obs::TraceContext& ctx = obs::TraceContext::instance();
  ctx.configure(/*enabled=*/true, /*seed=*/42,
                /*chrome_path=*/"fms_test_trace_buffer.json",
                /*flight_capacity=*/0, /*flight_dump_path=*/"");

  obs::Telemetry::instance().set_round(0);
  ctx.record(0, obs::Stage::kDispatch, 0.0, 0.0);
  ctx.record(0, obs::Stage::kTransmit, 0.25, 0.5, 1024.0);
  ctx.end_round(2.0);
  obs::Telemetry::instance().set_round(1);
  // A stale arrival in round 1 keyed to its round-0 dispatch cohort.
  ctx.record(0, obs::Stage::kArrive, 0.5, 0.0, /*value=*/1.0, "stale",
             /*origin_round=*/0);
  ctx.record(1, obs::Stage::kArrive, 0.5, 0.0, /*value=*/0.0, "fresh");
  ctx.end_round(1.0);

  const std::vector<obs::LifecycleEvent> evs = ctx.events_snapshot();
  ASSERT_EQ(evs.size(), 4U);
  // Round 1 events sit past round 0's committed duration.
  EXPECT_DOUBLE_EQ(evs[0].ts_s, 0.0);
  EXPECT_DOUBLE_EQ(evs[1].ts_s, 0.25);
  EXPECT_DOUBLE_EQ(evs[2].ts_s, 2.5);
  EXPECT_DOUBLE_EQ(evs[3].ts_s, 2.5);
  // The stale arrival shares the round-0 cohort trace with the dispatch.
  EXPECT_EQ(evs[2].origin_round, 0);
  EXPECT_EQ(evs[2].trace_id, evs[0].trace_id);
  EXPECT_EQ(evs[2].trace_id, obs::make_trace_id(42, 0));
  // The fresh arrival belongs to round 1's cohort.
  EXPECT_EQ(evs[3].origin_round, 1);
  EXPECT_EQ(evs[3].trace_id, obs::make_trace_id(42, 1));
  EXPECT_NE(evs[3].trace_id, evs[2].trace_id);
  EXPECT_EQ(evs[2].span_id,
            obs::make_span_id(evs[2].trace_id, 0, obs::Stage::kArrive));

  // Disabled: record() must be a no-op even with a buffer configured.
  obs::set_tracing_enabled(false);
  ctx.record(0, obs::Stage::kDrop, 0.0, 0.0);
  EXPECT_EQ(ctx.num_events(), 4U);
}

TEST_F(TraceTest, EmptyRoundStillAdvancesTheClock) {
  obs::TraceContext& ctx = obs::TraceContext::instance();
  ctx.configure(true, 1, "fms_test_trace_buffer.json", 0, "");
  obs::Telemetry::instance().set_round(0);
  ctx.end_round(0.0);  // everyone offline: zero committed duration
  EXPECT_GT(ctx.round_base_s(), 0.0);
}

// --- Chrome trace-event exporter, pinned by a committed golden file ---

std::vector<obs::LifecycleEvent> golden_events() {
  std::vector<obs::LifecycleEvent> evs;
  auto make = [](int round, int origin, int participant, obs::Stage stage,
                 double ts, double dur, double value, std::string detail) {
    obs::LifecycleEvent ev;
    ev.round = round;
    ev.origin_round = origin;
    ev.participant = participant;
    ev.stage = stage;
    ev.ts_s = ts;
    ev.dur_s = dur;
    ev.value = value;
    ev.detail = std::move(detail);
    ev.trace_id = obs::make_trace_id(/*seed=*/7, origin);
    ev.span_id = obs::make_span_id(ev.trace_id, participant, stage);
    return ev;
  };
  evs.push_back(make(0, 0, -1, obs::Stage::kQuorum, 2.0, 0.0, 2.0, "full"));
  evs.push_back(make(0, 0, 0, obs::Stage::kDispatch, 0.0, 0.0, 4096.0, ""));
  evs.push_back(make(0, 0, 0, obs::Stage::kTransmit, 0.0, 0.5, 4096.0, ""));
  evs.push_back(make(0, 0, 0, obs::Stage::kLocalTrain, 0.5, 0.0, 0.25, ""));
  evs.push_back(make(1, 0, 0, obs::Stage::kArrive, 2.5, 0.0, 1.0, "stale"));
  evs.push_back(
      make(1, 0, 0, obs::Stage::kScreen, 2.5, 0.0, 0.0, "rejected:grad_norm"));
  evs.push_back(make(1, 1, 1, obs::Stage::kDrop, 2.0, 0.0, 0.0, "dead_link"));
  return evs;
}

TEST_F(TraceTest, ChromeExportMatchesGoldenFile) {
  const std::string actual = obs::chrome_trace_json(golden_events());
  const std::string golden_path =
      std::string(FMS_TEST_GOLDEN_DIR) + "/trace_chrome.json";
  const std::string expected = read_file(golden_path);
  if (actual != expected) {
    // Bootstrap / update aid: leave the actual next to the test binary so
    // a deliberate format change can be reviewed and committed.
    std::ofstream out("trace_chrome.actual.json");
    out << actual;
  }
  EXPECT_EQ(actual, expected)
      << "exporter output drifted from tests/golden/trace_chrome.json "
         "(actual written to trace_chrome.actual.json)";
}

TEST_F(TraceTest, ChromeExportStructureIsWellFormed) {
  const std::string json = obs::chrome_trace_json(golden_events());
  // Header + metadata.
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"clock\":\"sim\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"server\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"participant 0\""), std::string::npos);
  // The transmit span is a duration event; instants carry the scope tag.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":500000"), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  // Causal ids reach the args of every event.
  EXPECT_NE(json.find("\"trace_id\":\"0x"), std::string::npos);
  EXPECT_NE(json.find("\"span_id\":\"0x"), std::string::npos);
  EXPECT_NE(json.find("\"detail\":\"rejected:grad_norm\""),
            std::string::npos);
}

TEST_F(TraceTest, ExportChromeWritesConfiguredFile) {
  const std::string path = "fms_test_trace_export.json";
  obs::TraceContext& ctx = obs::TraceContext::instance();
  ctx.configure(true, 9, path, 0, "");
  obs::Telemetry::instance().set_round(0);
  ctx.record(0, obs::Stage::kDispatch, 0.0, 0.0);
  ctx.end_round(1.0);
  ctx.export_chrome();
  const std::string written = read_file(path);
  EXPECT_NE(written.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(written.find("\"name\":\"dispatch\""), std::string::npos);
  std::remove(path.c_str());
}

// --- flight recorder ---

obs::LifecycleEvent flight_event(int participant, int round, double value) {
  obs::LifecycleEvent ev;
  ev.round = round;
  ev.origin_round = round;
  ev.participant = participant;
  ev.stage = obs::Stage::kArrive;
  ev.value = value;
  return ev;
}

TEST_F(TraceTest, FlightRingEvictsOldestFirst) {
  obs::FlightRecorder fr(/*capacity_per_participant=*/3);
  for (int r = 0; r < 5; ++r) fr.record(flight_event(0, r, r));
  fr.record(flight_event(1, 0, 100.0));

  const std::vector<obs::LifecycleEvent> p0 = fr.events_for(0);
  ASSERT_EQ(p0.size(), 3U);  // capacity bounds the ring
  EXPECT_EQ(p0[0].round, 2);  // rounds 0 and 1 were evicted
  EXPECT_EQ(p0[1].round, 3);
  EXPECT_EQ(p0[2].round, 4);
  // Rings are per participant: p1 kept its single event.
  ASSERT_EQ(fr.events_for(1).size(), 1U);
  EXPECT_DOUBLE_EQ(fr.events_for(1)[0].value, 100.0);
  EXPECT_TRUE(fr.events_for(7).empty());
}

TEST_F(TraceTest, FlightDumpWritesHeaderAndAllRings) {
  const std::string path = "fms_test_flight_dump.jsonl";
  obs::FlightRecorder fr(4);
  fr.record(flight_event(-1, 0, 1.0));  // server ring
  fr.record(flight_event(2, 0, 2.0));
  fr.record(flight_event(0, 1, 3.0));
  fr.dump(path, "quorum_failure");
  EXPECT_EQ(fr.num_dumps(), 1U);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4U);  // header + 3 events
  EXPECT_NE(lines[0].find("\"type\":\"flight_header\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"reason\":\"quorum_failure\""),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"events\":3"), std::string::npos);
  // Participants in ascending order, server (-1) first.
  EXPECT_NE(lines[1].find("\"participant\":-1"), std::string::npos);
  EXPECT_NE(lines[2].find("\"participant\":0"), std::string::npos);
  EXPECT_NE(lines[3].find("\"participant\":2"), std::string::npos);

  // A later dump rewrites the file (latest state wins).
  fr.record(flight_event(3, 2, 4.0));
  fr.dump(path, "crash");
  EXPECT_EQ(fr.num_dumps(), 2U);
  const std::string redump = read_file(path);
  EXPECT_NE(redump.find("\"reason\":\"crash\""), std::string::npos);
  EXPECT_NE(redump.find("\"events\":4"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TraceTest, ContextDumpFlightUsesConfiguredPath) {
  const std::string path = "fms_test_ctx_flight.jsonl";
  obs::TraceContext& ctx = obs::TraceContext::instance();
  ctx.configure(true, 3, /*chrome_path=*/"", /*flight_capacity=*/8, path);
  ASSERT_NE(ctx.flight(), nullptr);
  EXPECT_EQ(ctx.flight()->capacity(), 8);
  obs::Telemetry::instance().set_round(0);
  ctx.record(1, obs::Stage::kDrop, 0.0, 0.0, 0.0, "crash");
  // No chrome path: events feed only the flight ring, not the buffer.
  EXPECT_EQ(ctx.num_events(), 0U);
  ctx.dump_flight("health_crit:quorum");
  const std::string dump = read_file(path);
  EXPECT_NE(dump.find("\"reason\":\"health_crit:quorum\""),
            std::string::npos);
  EXPECT_NE(dump.find("\"detail\":\"crash\""), std::string::npos);
  std::remove(path.c_str());
}

// --- the load-bearing contract: tracing must not perturb the search ---

TEST_F(TraceTest, TracingOnVersusOffIsBitIdentical) {
  const std::string chrome = "fms_test_trace_identity.json";
  const std::string flight = "fms_test_trace_identity_flight.jsonl";
  SearchOptions opts;
  opts.stale_policy = StalePolicy::kCompensate;
  opts.staleness = StalenessDistribution::slight();
  opts.quorum = 0.75;
  opts.fault_plan = FaultPlan::parse("dropout=0.1,link=0.1,seed=5");
  auto run = [&](bool traced) {
    TinyWorld w = make_tiny_world(55);
    if (traced) {
      w.cfg.telemetry.enabled = true;
      w.cfg.telemetry.health = true;
      w.cfg.telemetry.trace_chrome_path = chrome;
      w.cfg.telemetry.flight_recorder = 8;
      w.cfg.telemetry.flight_dump_path = flight;
    }
    FederatedSearch search(w.cfg, w.data.train, w.partition);
    search.run_warmup(1);
    std::vector<RoundRecord> records = search.run_search(4, opts);
    const Genotype genotype = search.derive();
    if (traced) {
      EXPECT_GT(obs::TraceContext::instance().num_events(), 0U);
    }
    obs::Telemetry::instance().finish();
    obs::Telemetry::instance().clear_sinks();
    obs::set_telemetry_enabled(false);
    obs::set_tracing_enabled(false);
    obs::TraceContext::instance().reset();
    return std::make_pair(std::move(records), genotype.to_string());
  };
  const auto off = run(false);
  const auto on = run(true);

  ASSERT_EQ(off.first.size(), on.first.size());
  for (std::size_t i = 0; i < off.first.size(); ++i) {
    EXPECT_EQ(off.first[i].mean_reward, on.first[i].mean_reward);  // fms-lint: allow(float-eq) -- bit-identity is the contract
    EXPECT_EQ(off.first[i].moving_avg, on.first[i].moving_avg);  // fms-lint: allow(float-eq) -- bit-identity is the contract
    EXPECT_EQ(off.first[i].baseline, on.first[i].baseline);  // fms-lint: allow(float-eq) -- bit-identity is the contract
    EXPECT_EQ(off.first[i].alpha_entropy, on.first[i].alpha_entropy);  // fms-lint: allow(float-eq) -- bit-identity is the contract
    EXPECT_EQ(off.first[i].arrived, on.first[i].arrived);
    EXPECT_EQ(off.first[i].dropped, on.first[i].dropped);
    EXPECT_EQ(off.first[i].bytes_down, on.first[i].bytes_down);
    EXPECT_EQ(off.first[i].mean_tau, on.first[i].mean_tau);  // fms-lint: allow(float-eq) -- bit-identity is the contract
    EXPECT_EQ(off.first[i].partial_quorum, on.first[i].partial_quorum);
    // The untraced run's records must stay at the health defaults.
    EXPECT_EQ(off.first[i].health, 0);
    EXPECT_TRUE(off.first[i].health_trips.empty());
  }
  EXPECT_EQ(off.second, on.second);
  std::remove(chrome.c_str());
  std::remove(flight.c_str());
}

TEST_F(TraceTest, SearchEmitsFullLifecycleWithSharedCohortTraces) {
  const std::string chrome = "fms_test_trace_lifecycle.json";
  TinyWorld w = make_tiny_world(21);
  w.cfg.telemetry.enabled = true;
  w.cfg.telemetry.trace_chrome_path = chrome;
  SearchOptions opts;
  opts.stale_policy = StalePolicy::kCompensate;
  opts.staleness = StalenessDistribution::severe();
  {
    FederatedSearch search(w.cfg, w.data.train, w.partition);
    search.run_warmup(1);
    search.run_search(6, opts);

    const std::vector<obs::LifecycleEvent> evs =
        obs::TraceContext::instance().events_snapshot();
    std::set<obs::Stage> stages;
    bool stale_cross_round = false;
    for (const obs::LifecycleEvent& ev : evs) {
      stages.insert(ev.stage);
      if (ev.stage == obs::Stage::kArrive && ev.origin_round < ev.round) {
        // A stale arrival must carry its dispatch cohort's trace id.
        EXPECT_EQ(ev.trace_id,
                  obs::make_trace_id(w.cfg.seed, ev.origin_round));
        stale_cross_round = true;
      }
    }
    EXPECT_TRUE(stages.count(obs::Stage::kDispatch));
    EXPECT_TRUE(stages.count(obs::Stage::kTransmit));
    EXPECT_TRUE(stages.count(obs::Stage::kLocalTrain));
    EXPECT_TRUE(stages.count(obs::Stage::kArrive));
    EXPECT_TRUE(stages.count(obs::Stage::kAggregate));
    EXPECT_TRUE(stages.count(obs::Stage::kQuorum));
    EXPECT_TRUE(stale_cross_round)
        << "severe staleness over 6 rounds must produce a cross-round "
           "arrival";
  }
  obs::Telemetry::instance().finish();
  // finish() exported the configured chrome trace.
  EXPECT_FALSE(read_file(chrome).empty());
  std::remove(chrome.c_str());
}

}  // namespace
}  // namespace fms
