// Tests for the deterministic work ledger and the machine-peak
// calibration (src/obs/work.*, src/obs/roofline.*): exact pinned
// FLOP/byte counts for known shapes, ledger accumulation / merge /
// reset semantics, the by-name join of every ledger row to its profiler
// zones, coverage of the search hot path, the cost fields on "profile"
// events and the report's fold of them back into the same rows, the
// peak JSON sidecar round-trip, and — the load-bearing guarantee —
// bit-identical search results with profiling (and so the ledger) on
// versus off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/search.h"
#include "src/data/synth.h"
#include "src/fed/compression.h"
#include "src/fed/messages.h"
#include "src/obs/report.h"
#include "src/obs/roofline.h"
#include "src/obs/telemetry.h"
#include "src/obs/work.h"
#include "src/tensor/tensor.h"

namespace fms {
namespace {

// Every test drives the process-global profiling flag (the ledger has
// no switch of its own); start and end clean so ordering between tests
// (and other test files) is moot.
class WorkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_telemetry_enabled(false);
    obs::set_profiling_enabled(false);
    obs::reset_profiler();
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

const obs::WorkRow* find_op(const obs::WorkReport& report,
                            const std::string& op) {
  for (const obs::WorkRow& row : report.rows) {
    if (row.op == op) return &row;
  }
  return nullptr;
}

TEST_F(WorkTest, CostModelsArePinnedForKnownShapes) {
  // The bench conv3x3 shape: x = {4,8,8,8}, Conv2d(8 -> 8, 3x3, pad 1),
  // so the output is {4,8,8,8} too. macs = 2048 * 8 * 3 * 3 = 147456.
  const obs::OpCost conv = obs::conv2d_fwd_cost(4, 8, 8, 8, 8, 3, 3, 8, 8, 1);
  EXPECT_EQ(conv.flops, 294912U);                 // 2 * macs
  EXPECT_EQ(conv.bytes_read, 4U * (2048 + 576));  // x + w, once each
  EXPECT_EQ(conv.bytes_written, 4U * 2048);       // y
  EXPECT_EQ(conv.elements, 2048U);

  const obs::OpCost convb =
      obs::conv2d_bwd_cost(4, 8, 8, 8, 8, 3, 3, 8, 8, 1);
  EXPECT_EQ(convb.flops, 589824U);  // grad_x + grad_w GEMMs, 2 * macs each
  EXPECT_EQ(convb.bytes_read, 4U * (2048 + 2048 + 576));
  EXPECT_EQ(convb.bytes_written, 4U * (2048 + 576));
  EXPECT_EQ(convb.elements, 2048U + 576U);

  const obs::OpCost mm = obs::matmul_cost(2, 3, 4);
  EXPECT_EQ(mm.flops, 48U);           // 2 * 2 * 3 * 4
  EXPECT_EQ(mm.bytes_read, 72U);      // 4 * (6 + 12)
  EXPECT_EQ(mm.bytes_written, 32U);   // 4 * 8
  EXPECT_EQ(mm.elements, 8U);

  const obs::OpCost bn = obs::batchnorm_fwd_cost(4, 8, 8, 8, true);
  EXPECT_EQ(bn.flops, 8U * 2048 + 10U * 8);
  EXPECT_EQ(bn.bytes_read, 4U * (2048 + 32));
  EXPECT_EQ(bn.bytes_written, 4U * (2 * 2048 + 16));
  EXPECT_EQ(bn.elements, 2048U);
  const obs::OpCost bn_eval = obs::batchnorm_fwd_cost(4, 8, 8, 8, false);
  EXPECT_EQ(bn_eval.flops, 4U * 2048 + 3U * 8);
  EXPECT_EQ(bn_eval.bytes_written, 4U * 2048);

  // ReLU: an eval forward writes y; a train forward also the byte mask.
  const obs::OpCost relu_eval = obs::relu_fwd_cost(64, false);
  EXPECT_EQ(relu_eval.flops, 64U);
  EXPECT_EQ(relu_eval.bytes_read, 256U);
  EXPECT_EQ(relu_eval.bytes_written, 256U);
  EXPECT_EQ(relu_eval.elements, 64U);
  const obs::OpCost relu_train = obs::relu_fwd_cost(64, true);
  EXPECT_EQ(relu_train.bytes_read, 256U);
  EXPECT_EQ(relu_train.bytes_written, 256U + 64U);

  const obs::OpCost mean = obs::agg_mean_cost(100, 10 * 100);
  EXPECT_EQ(mean.flops, 1100U);          // m*d sums + d scales
  EXPECT_EQ(mean.bytes_read, 4000U);     // every update, once
  EXPECT_EQ(mean.bytes_written, 400U);   // the aggregate
  EXPECT_EQ(mean.elements, 100U);
  // Masked updates: only the carried values are read and summed.
  const obs::OpCost sparse = obs::agg_mean_cost(100, 150);
  EXPECT_EQ(sparse.flops, 250U);
  EXPECT_EQ(sparse.bytes_read, 600U);
  EXPECT_EQ(sparse.bytes_written, 400U);

  // ceil_log2 drives the sort-based estimators.
  EXPECT_EQ(obs::ceil_log2(1), 0U);
  EXPECT_EQ(obs::ceil_log2(2), 1U);
  EXPECT_EQ(obs::ceil_log2(3), 2U);
  EXPECT_EQ(obs::ceil_log2(8), 3U);
  EXPECT_EQ(obs::ceil_log2(10), 4U);
  const obs::OpCost med = obs::agg_coordinate_median_cost(10, 7, 10 * 7);
  EXPECT_EQ(med.flops, 7U * (10 * 4 + 1));
  const obs::OpCost trim = obs::agg_trimmed_mean_cost(10, 7, 20);
  EXPECT_EQ(trim.flops, 20U * (4 + 1) + 7U);
  EXPECT_EQ(trim.bytes_read, 80U);
  const obs::OpCost krum = obs::agg_krum_cost(10, 7, 10 * 7);
  EXPECT_EQ(krum.flops, 3U * 45 * 7 + 10U * 7 + 7U);  // 45 pairs

  const obs::OpCost copy = obs::copy_cost(10);  // gather/scatter: bytes only
  EXPECT_EQ(copy.flops, 0U);
  EXPECT_EQ(copy.bytes_read, 40U);
  EXPECT_EQ(copy.bytes_written, 40U);
  EXPECT_EQ(copy.elements, 10U);

  const obs::OpCost axpy = obs::axpy_cost(64);
  EXPECT_EQ(axpy.flops, 64U);
  EXPECT_EQ(axpy.bytes_read, 512U);   // y read-modify-write + x
  EXPECT_EQ(axpy.bytes_written, 256U);

  // Arithmetic intensity is FLOPs per byte moved, both directions.
  EXPECT_DOUBLE_EQ(obs::arithmetic_intensity(mm),
                   48.0 / (72.0 + 32.0));
  EXPECT_DOUBLE_EQ(obs::arithmetic_intensity(obs::OpCost{}), 0.0);
}

TEST_F(WorkTest, LedgerAccumulatesMergesDeterministicallyAndResets) {
  obs::set_profiling_enabled(true);
  obs::reset_profiler();
  { FMS_OP("test.op_b", obs::matmul_cost(2, 3, 4)); }
  { FMS_OP("test.op_a", obs::axpy_cost(10)); }
  { FMS_OP("test.op_b", obs::matmul_cost(2, 3, 4)); }
  const obs::WorkReport first = obs::collect_work();
  const obs::WorkReport second = obs::collect_work();
  obs::set_profiling_enabled(false);

  ASSERT_EQ(first.rows.size(), 2U);
  // Rows come back in lexicographic op order regardless of record order.
  EXPECT_EQ(first.rows[0].op, "test.op_a");
  EXPECT_EQ(first.rows[1].op, "test.op_b");
  EXPECT_EQ(first.rows[1].calls, 2U);
  EXPECT_EQ(first.rows[1].cost.flops, 96U);
  EXPECT_EQ(first.rows[1].cost.bytes_read, 144U);
  EXPECT_EQ(first.total_calls, 3U);
  EXPECT_EQ(first.total.flops, 96U + 10U);

  // Collection must be a pure read: identical back-to-back reports.
  ASSERT_EQ(second.rows.size(), first.rows.size());
  for (std::size_t i = 0; i < first.rows.size(); ++i) {
    EXPECT_EQ(first.rows[i].op, second.rows[i].op);
    EXPECT_EQ(first.rows[i].calls, second.rows[i].calls);
    EXPECT_EQ(first.rows[i].cost.flops, second.rows[i].cost.flops);
  }

  obs::reset_profiler();
  EXPECT_TRUE(obs::collect_work().rows.empty());
  EXPECT_EQ(obs::collect_work().total_calls, 0U);
}

TEST_F(WorkTest, OneOpUnderTwoParentPathsFoldsIntoOneRow) {
  obs::set_profiling_enabled(true);
  obs::reset_profiler();
  {
    FMS_OP("test.parent_a", {});
    FMS_OP("test.shared", obs::axpy_cost(8));
  }
  {
    FMS_OP("test.parent_b", {});
    FMS_OP("test.shared", obs::axpy_cost(8));
  }
  const obs::ProfileReport profile = obs::collect_profile();
  const obs::WorkReport report = obs::collect_work(profile);
  obs::set_profiling_enabled(false);

  // Two zones in the tree, one under each parent...
  int shared_zones = 0;
  for (const obs::ZoneStats& z : profile.zones) {
    if (z.name != "test.shared") continue;
    ++shared_zones;
    EXPECT_EQ(z.calls, 1U) << z.path;
    EXPECT_EQ(z.cost.flops, 8U) << z.path;
  }
  EXPECT_EQ(shared_zones, 2);
  // ...one ledger row summing both; the time-only parents are no rows.
  ASSERT_EQ(report.rows.size(), 1U);
  EXPECT_EQ(report.rows[0].op, "test.shared");
  EXPECT_EQ(report.rows[0].calls, 2U);
  EXPECT_EQ(report.rows[0].cost.flops, 16U);
  EXPECT_EQ(report.rows[0].cost.bytes_read, 2 * obs::axpy_cost(8).bytes_read);
  EXPECT_EQ(report.total_calls, 2U);
}

TEST_F(WorkTest, DisabledLedgerRecordsNothingAndEvaluatesNoCost) {
  int evaluations = 0;
  auto costed = [&] {
    ++evaluations;
    return obs::axpy_cost(8);
  };
  {
    FMS_OP("test.never", costed());
    obs::ScopedOp late("test.never_late");
    late.add(costed);
  }
  EXPECT_EQ(evaluations, 0);  // cost expression must not run when off
  EXPECT_TRUE(obs::collect_work().rows.empty());
}

TEST_F(WorkTest, TensorAxpyIsRecorded) {
  obs::set_profiling_enabled(true);
  obs::reset_profiler();
  Tensor a({64}, 1.0F);
  const Tensor b({64}, 2.0F);
  a += b;
  const obs::WorkReport report = obs::collect_work();
  obs::set_profiling_enabled(false);

  const obs::WorkRow* axpy = find_op(report, "tensor.axpy");
  ASSERT_NE(axpy, nullptr);
  EXPECT_EQ(axpy->calls, 1U);
  EXPECT_EQ(axpy->cost.flops, 64U);
  EXPECT_EQ(axpy->cost.bytes_written, 256U);
}

TEST_F(WorkTest, SearchLedgerCoversHotOpsAndOnOffIsBitIdentical) {
  // Two runs of the same seeded search, ledger off then on: the ledger
  // only observes, so every round record and the derived genotype must
  // match bit for bit — and the on-run must have charged the hot ops.
  SearchOptions opts;
  obs::WorkReport on_report;
  auto run = [&](bool tracked) {
    TinyWorld w = make_tiny_world(55);
    FederatedSearch search(w.cfg, w.data.train, w.partition);
    obs::set_profiling_enabled(tracked);
    obs::reset_profiler();
    search.run_warmup(1);
    std::vector<RoundRecord> records = search.run_search(3, opts);
    const Genotype genotype = search.derive();
    if (tracked) on_report = obs::collect_work();
    obs::set_profiling_enabled(false);
    return std::make_pair(std::move(records), genotype.to_string());
  };
  const auto off = run(false);
  const auto on = run(true);

  ASSERT_EQ(off.first.size(), on.first.size());
  for (std::size_t i = 0; i < off.first.size(); ++i) {
    EXPECT_EQ(off.first[i].mean_reward, on.first[i].mean_reward);  // fms-lint: allow(float-eq) -- bit-identity is the contract
    EXPECT_EQ(off.first[i].moving_avg, on.first[i].moving_avg);  // fms-lint: allow(float-eq) -- bit-identity is the contract
    EXPECT_EQ(off.first[i].baseline, on.first[i].baseline);  // fms-lint: allow(float-eq) -- bit-identity is the contract
    EXPECT_EQ(off.first[i].arrived, on.first[i].arrived);
  }
  EXPECT_EQ(off.second, on.second);

  for (const char* op : {"nn.conv_fwd", "nn.conv_bwd", "nn.bn_fwd",
                         "nn.relu_fwd", "agg.mean", "tensor.axpy"}) {
    const obs::WorkRow* row = find_op(on_report, op);
    ASSERT_NE(row, nullptr) << "missing hot op " << op;
    EXPECT_GT(row->calls, 0U) << op;
  }
  EXPECT_GT(on_report.total.flops, 0U);
  EXPECT_GT(on_report.total.bytes_read, 0U);
}

TEST_F(WorkTest, EveryLedgerRowJoinsItsSameNamedZones) {
  // A ledger row and the zones of the same name describe the same calls:
  // equal call counts and the same, real, inclusive time. The ops that
  // once booked work with no zone to match (the default path's agg.mean,
  // net.transmission, tensor.axpy) must be among the joined rows.
  SearchOptions opts;
  TinyWorld w = make_tiny_world(55);
  FederatedSearch search(w.cfg, w.data.train, w.partition);
  obs::set_profiling_enabled(true);
  obs::reset_profiler();
  search.run_warmup(1);
  search.run_search(3, opts);
  const obs::ProfileReport profile = obs::collect_profile();
  const obs::WorkReport work = obs::collect_work();
  obs::set_profiling_enabled(false);

  std::map<std::string, obs::ZoneStats> by_name;
  for (const obs::ZoneStats& z : profile.zones) {
    obs::ZoneStats& sum = by_name[z.name];
    sum.calls += z.calls;
    sum.incl_ns += z.incl_ns;
  }
  for (const obs::WorkRow& row : work.rows) {
    const auto it = by_name.find(row.op);
    ASSERT_NE(it, by_name.end()) << "no zone for ledger row " << row.op;
    EXPECT_EQ(it->second.calls, row.calls) << row.op;
    EXPECT_EQ(it->second.incl_ns, row.incl_ns) << row.op;
    EXPECT_GT(row.incl_ns, 0U) << row.op;
  }
  for (const char* op : {"agg.mean", "net.transmission", "tensor.axpy"}) {
    EXPECT_NE(find_op(work, op), nullptr) << "missing ledger row " << op;
  }
}

TEST_F(WorkTest, SearchLedgerIsReproducibleAcrossRuns) {
  // The counts themselves are part of the deterministic surface: two
  // identical searches must produce identical ledgers, exactly.
  SearchOptions opts;
  std::vector<obs::WorkReport> reports;
  for (int run = 0; run < 2; ++run) {
    TinyWorld w = make_tiny_world(77);
    FederatedSearch search(w.cfg, w.data.train, w.partition);
    obs::set_profiling_enabled(true);
    obs::reset_profiler();
    search.run_warmup(1);
    search.run_search(2, opts);
    reports.push_back(obs::collect_work());
    obs::set_profiling_enabled(false);
    obs::reset_profiler();
  }
  ASSERT_EQ(reports[0].rows.size(), reports[1].rows.size());
  for (std::size_t i = 0; i < reports[0].rows.size(); ++i) {
    EXPECT_EQ(reports[0].rows[i].op, reports[1].rows[i].op);
    EXPECT_EQ(reports[0].rows[i].calls, reports[1].rows[i].calls);
    EXPECT_EQ(reports[0].rows[i].cost.flops, reports[1].rows[i].cost.flops);
    EXPECT_EQ(reports[0].rows[i].cost.bytes_read,
              reports[1].rows[i].cost.bytes_read);
    EXPECT_EQ(reports[0].rows[i].cost.bytes_written,
              reports[1].rows[i].cost.bytes_written);
    EXPECT_EQ(reports[0].rows[i].cost.elements,
              reports[1].rows[i].cost.elements);
  }
}

TEST_F(WorkTest, MessageCodecsRecordPayloadBytes) {
  // Wire codecs move bytes, not FLOPs: each serialize/deserialize books
  // the payload once on each side of the convention.
  obs::set_profiling_enabled(true);
  obs::reset_profiler();
  UpdateMsg msg;
  msg.round = 3;
  msg.participant = 1;
  msg.reward = 0.5F;
  msg.grads = {1.0F, 2.0F, 3.0F};
  const std::vector<std::uint8_t> wire = msg.serialize();
  const UpdateMsg back = UpdateMsg::deserialize(wire);
  const obs::WorkReport report = obs::collect_work();
  obs::set_profiling_enabled(false);

  EXPECT_EQ(back.round, 3);
  const obs::WorkRow* enc = find_op(report, "fed.encode");
  const obs::WorkRow* dec = find_op(report, "fed.decode");
  ASSERT_NE(enc, nullptr);
  ASSERT_NE(dec, nullptr);
  EXPECT_EQ(enc->calls, 1U);
  EXPECT_EQ(enc->cost.flops, 0U);
  EXPECT_EQ(enc->cost.bytes_written, wire.size());
  EXPECT_EQ(enc->cost.elements, wire.size());
  EXPECT_EQ(dec->cost.bytes_read, wire.size());
}

TEST_F(WorkTest, PayloadRoundTripBooksOneCompressZonePerLossyCall) {
  // A lossy codec's in-place round trip reads and writes each float once;
  // float32 is a no-op and opens no zone.
  obs::set_profiling_enabled(true);
  obs::reset_profiler();
  std::vector<float> values(300, 0.5F);
  codec_round_trip(values, Codec::kInt8);
  codec_round_trip(values, Codec::kFloat16);
  codec_round_trip(values, Codec::kFloat32);
  const obs::WorkReport report = obs::collect_work();
  obs::set_profiling_enabled(false);

  const obs::WorkRow* row = find_op(report, "fed.compress");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->calls, 2U);
  EXPECT_EQ(row->cost.flops, 0U);
  EXPECT_EQ(row->cost.bytes_read, 2U * 4U * values.size());
  EXPECT_EQ(row->cost.bytes_written, 2U * 4U * values.size());
  EXPECT_EQ(row->cost.elements, 2U * values.size());
}

TEST_F(WorkTest, ProfileEventsCarryTheZoneCost) {
  // The "profile" event is the op tree's only way into the sinks, so each
  // zone's event carries its cost (zeros for a time-only zone), and the
  // registry gains only the process-wide alloc/RSS gauges.
  obs::set_profiling_enabled(true);
  obs::reset_profiler();
  {
    FMS_OP("test.parent", {});
    FMS_OP("test.emit", obs::matmul_cost(2, 3, 4));
  }
  const obs::ProfileReport profile = obs::collect_profile();
  obs::set_profiling_enabled(false);

  obs::set_telemetry_enabled(true);
  std::vector<obs::TraceEvent> events;
  {
    obs::EventCapture capture(events);
    obs::emit_profile_telemetry(profile);
  }
  obs::set_telemetry_enabled(false);

  std::map<std::string, std::map<std::string, double>> fields;
  for (const obs::TraceEvent& ev : events) {
    EXPECT_EQ(ev.type, "profile");
    for (const auto& [key, value] : ev.fields) fields[ev.name][key] = value;
  }
  ASSERT_EQ(fields.size(), 2U);
  const obs::OpCost cost = obs::matmul_cost(2, 3, 4);
  const std::map<std::string, double>& op = fields["test.parent/test.emit"];
  const std::map<std::string, double>& parent = fields["test.parent"];
  const std::pair<const char*, std::uint64_t> expected[] = {
      {"flops", cost.flops},
      {"bytes_read", cost.bytes_read},
      {"bytes_written", cost.bytes_written},
      {"elements", cost.elements}};
  for (const auto& [key, value] : expected) {
    ASSERT_EQ(op.count(key), 1U) << key;
    EXPECT_DOUBLE_EQ(op.at(key), static_cast<double>(value)) << key;
    ASSERT_EQ(parent.count(key), 1U) << key;
    EXPECT_DOUBLE_EQ(parent.at(key), 0.0) << key;
  }
  EXPECT_DOUBLE_EQ(op.at("calls"), 1.0);

  for (const obs::MetricSample& sample :
       obs::Telemetry::instance().registry().snapshot()) {
    EXPECT_TRUE(sample.name.rfind("fms.alloc.", 0) == 0 ||
                sample.name == "fms.rss.peak_bytes")
        << sample.name;
  }
}

TEST_F(WorkTest, ReportWorkLedgerMatchesTheInProcessFold) {
  // Round trip: a profiled search writes its op tree as "profile" events
  // only; the report folds them back into the same rows the process
  // itself computes with collect_work.
  const std::string trace = "fms_test_work_roundtrip.jsonl";
  SearchOptions opts;
  TinyWorld w = make_tiny_world(91);
  w.cfg.telemetry.enabled = true;
  w.cfg.telemetry.profile = true;
  w.cfg.telemetry.trace_jsonl_path = trace;
  obs::Telemetry::instance().configure(w.cfg.telemetry);
  obs::reset_profiler();
  FederatedSearch search(w.cfg, w.data.train, w.partition);
  search.run_warmup(1);
  search.run_search(2, opts);
  obs::WorkReport work = obs::collect_work();
  obs::Telemetry::instance().finish();
  obs::Telemetry::instance().clear_sinks();

  std::sort(work.rows.begin(), work.rows.end(),
            [](const obs::WorkRow& a, const obs::WorkRow& b) {
              if (a.cost.flops != b.cost.flops) {
                return a.cost.flops > b.cost.flops;
              }
              return a.op < b.op;
            });
  std::vector<std::string> expected;
  for (const obs::WorkRow& row : work.rows) {
    char line[512];
    std::snprintf(line, sizeof(line),
                  "<tr><td>%s</td><td>%.6g</td><td>%.3f</td><td>%.3f</td>"
                  "<td>%.3f</td><td>%.3f</td></tr>",
                  row.op.c_str(), static_cast<double>(row.calls),
                  static_cast<double>(row.cost.flops) / 1e6,
                  static_cast<double>(row.cost.bytes_read) / 1e6,
                  static_cast<double>(row.cost.bytes_written) / 1e6,
                  obs::arithmetic_intensity(row.cost));
    expected.emplace_back(line);
  }
  ASSERT_FALSE(expected.empty());

  // Only the "profile" lines go to the report: they alone must carry it.
  const std::string profile_trace = "fms_test_work_roundtrip_profile.jsonl";
  {
    std::ifstream in(trace);
    std::ofstream out(profile_trace);
    std::string event;
    while (std::getline(in, event)) {
      if (event.find("\"type\":\"profile\"") != std::string::npos) {
        out << event << "\n";
      }
    }
  }
  obs::ReportInputs inputs;
  inputs.trace_jsonl_path = profile_trace;
  const std::string html = obs::generate_report_html(inputs);
  const std::size_t begin = html.find("<h2>Work ledger</h2>");
  ASSERT_NE(begin, std::string::npos);
  std::istringstream section(
      html.substr(begin, html.find("</section>", begin) - begin));
  std::vector<std::string> rendered;
  std::string line;
  while (std::getline(section, line)) {
    if (line.rfind("<tr><td>", 0) == 0) rendered.push_back(line);
  }
  EXPECT_EQ(rendered, expected);
  std::remove(trace.c_str());
  std::remove(profile_trace.c_str());
}

TEST_F(WorkTest, PeakJsonRoundTripsExactly) {
  obs::MachinePeak peak;
  peak.scalar_gflops = 3.14159265358979312;
  peak.vector_gflops = 42.5;
  peak.stream_gbps = 17.25;
  peak.calibrated_ms = 12.0;
  obs::MachinePeak back;
  ASSERT_TRUE(obs::parse_machine_peak(obs::peak_to_json(peak), &back));
  EXPECT_EQ(back.scalar_gflops, peak.scalar_gflops);  // fms-lint: allow(float-eq) -- %.17g round-trip is exact
  EXPECT_EQ(back.vector_gflops, peak.vector_gflops);  // fms-lint: allow(float-eq) -- %.17g round-trip is exact
  EXPECT_EQ(back.stream_gbps, peak.stream_gbps);  // fms-lint: allow(float-eq) -- %.17g round-trip is exact
  EXPECT_EQ(back.calibrated_ms, peak.calibrated_ms);  // fms-lint: allow(float-eq) -- %.17g round-trip is exact

  obs::MachinePeak reject;
  EXPECT_FALSE(obs::parse_machine_peak("{\"schema\": 2}", &reject));
  EXPECT_FALSE(obs::parse_machine_peak("not json", &reject));
  // A peak with a zero component is invalid and must not parse.
  peak.stream_gbps = 0.0;
  EXPECT_FALSE(obs::parse_machine_peak(obs::peak_to_json(peak), &reject));
}

TEST_F(WorkTest, LoadOrCalibrateUsesTheCacheWithoutRemeasuring) {
  const std::string path = "fms_test_peak_cache.json";
  obs::MachinePeak cached;
  cached.scalar_gflops = 1.5;
  cached.vector_gflops = 9.75;
  cached.stream_gbps = 4.25;
  cached.calibrated_ms = 7.0;
  {
    std::ofstream out(path);
    out << obs::peak_to_json(cached);
  }
  // A valid sidecar is authoritative: the values (calibrated_ms
  // included) come back exactly, proving no re-calibration happened.
  const obs::MachinePeak loaded = obs::load_or_calibrate(path);
  EXPECT_EQ(loaded.scalar_gflops, cached.scalar_gflops);  // fms-lint: allow(float-eq) -- cache hit must be exact
  EXPECT_EQ(loaded.vector_gflops, cached.vector_gflops);  // fms-lint: allow(float-eq) -- cache hit must be exact
  EXPECT_EQ(loaded.stream_gbps, cached.stream_gbps);  // fms-lint: allow(float-eq) -- cache hit must be exact
  EXPECT_EQ(loaded.calibrated_ms, cached.calibrated_ms);  // fms-lint: allow(float-eq) -- cache hit must be exact

  // A corrupt sidecar falls back to calibration and rewrites the file.
  {
    std::ofstream out(path);
    out << "garbage";
  }
  const obs::MachinePeak fresh = obs::load_or_calibrate(path);
  EXPECT_TRUE(fresh.valid());
  std::ifstream in(path);
  std::string rewritten((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  obs::MachinePeak reparsed;
  EXPECT_TRUE(obs::parse_machine_peak(rewritten, &reparsed));
  std::remove(path.c_str());
}

TEST_F(WorkTest, RooflineCeilingIsMinOfComputeAndBandwidth) {
  obs::MachinePeak peak;
  peak.scalar_gflops = 10.0;
  peak.vector_gflops = 100.0;
  peak.stream_gbps = 10.0;
  EXPECT_DOUBLE_EQ(obs::roofline_gflops(peak, 5.0), 50.0);    // memory-bound
  EXPECT_DOUBLE_EQ(obs::roofline_gflops(peak, 20.0), 100.0);  // compute-bound
  EXPECT_DOUBLE_EQ(obs::roofline_gflops(peak, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(obs::roofline_gflops(obs::MachinePeak{}, 5.0), 0.0);
}

}  // namespace
}  // namespace fms
