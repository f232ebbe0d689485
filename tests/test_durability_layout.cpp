// Byte-layout goldens for every persisted type: round records, journal
// frames, checkpoints (v2 and the legacy v1), genotypes, wire messages,
// the churn-layer state and a fresh search's runtime blob. Each case
// checks that serializing a fixed input gives the committed golden bytes,
// and that reading the golden and serializing again gives them too, so a
// walk that reorders, drops or resizes a field fails here before it can
// corrupt a checkpoint on disk. Inputs are built from fixed values only
// (no trained float enters a file), so Release and Debug agree; the one
// exception, a fresh search's bandwidth-trace draw, is noted at its case.
// Selected with `ctest -L durability`.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/serialize.h"
#include "src/core/checkpoint.h"
#include "src/core/deadline.h"
#include "src/core/journal.h"
#include "src/core/round_record.h"
#include "src/core/search.h"
#include "src/data/synth.h"
#include "src/fault/degrade.h"
#include "src/fed/messages.h"
#include "src/fed/registry.h"
#include "src/sim/churn.h"

namespace fms {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(FMS_TEST_GOLDEN_DIR) + "/layout/" + name + ".bin";
}

std::vector<std::uint8_t> golden(const std::string& name) {
  std::ifstream in(golden_path(name), std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden " << golden_path(name);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

// Every field distinct from its neighbours of the same type, both strings
// non-empty: swapping two fields changes the bytes.
RoundRecord sample_record() {
  RoundRecord r;
  r.round = 101;
  r.mean_reward = 0.5;
  r.moving_avg = 1.5;
  r.arrived = 102;
  r.dropped = 103;
  r.max_latency_s = 2.5;
  r.mean_latency_s = 3.5;
  r.bytes_down = 4096;
  r.bytes_up = 8192;
  r.stale_arrived = 104;
  r.compensated = 105;
  r.mean_tau = 4.5;
  r.max_tau = 106;
  r.alpha_entropy = 5.5;
  r.baseline = 6.5;
  r.offline = 107;
  r.rejected = 108;
  r.late = 109;
  r.retransmits = 110;
  r.partial_quorum = true;
  r.commit_latency_s = 7.5;
  r.agg_clipped = 111;
  r.agg_clipped_mass = 8.5;
  r.agg_trimmed = 112;
  r.agg_rejected = 113;
  r.winsorized = 114;
  r.screen_bound = 9.5;
  r.health = 2;
  r.health_trips = "loss_stall,entropy_collapse";
  r.live = 115;
  r.joined = 116;
  r.left = 117;
  r.cohort = 118;
  r.shed = 119;
  r.deadline_s = 10.5;
  r.degrade_mode = 3;
  r.degrade_transition = "2->3";
  return r;
}

JournalFrame sample_frame() {
  JournalFrame f;
  f.phase = 1;
  f.round = 42;
  f.record = sample_record();
  f.rng_cursor = "rng-cursor";
  f.staleness_cursor = "staleness-cursor";
  f.degrade_mode = 2;
  f.degrade_transitions = 5;
  return f;
}

// Two nodes give five edges per cell template.
constexpr int kEdges = 5;

SearchCheckpoint sample_checkpoint(std::uint32_t version) {
  SearchCheckpoint c;
  c.version = version;
  c.num_edges = kEdges;
  c.num_nodes = 2;
  c.theta = {0.5F, -1.25F, 2.0F, 0.0F, 3.75F};
  std::vector<float> flat(static_cast<std::size_t>(2 * kEdges * kNumOps));
  for (std::size_t i = 0; i < flat.size(); ++i) {
    flat[i] = 0.25F * static_cast<float>(i) - 4.0F;
  }
  c.alpha = AlphaPair::unflatten(flat, kEdges);
  c.baseline = 0.625;
  c.round = 17;
  if (version >= 2) {
    c.baseline_initialized = true;
    c.runtime_state = {1, 2, 3, 4, 5, 250};
  }
  return c;
}

Genotype sample_genotype() {
  Genotype g;
  g.nodes = 2;
  g.normal = {{0, OpType::kSepConv3}, {1, OpType::kIdentity},
              {2, OpType::kMaxPool3}, {0, OpType::kDilConv5}};
  g.reduce = {{1, OpType::kAvgPool3}, {0, OpType::kSepConv5},
              {2, OpType::kDilConv3}, {1, OpType::kZero}};
  return g;
}

Mask sample_mask() {
  Mask m;
  m.normal = {0, 3, 7, 1, 2};
  m.reduce = {4, 5, 6, 0, 1};
  return m;
}

SubmodelMsg sample_submodel() {
  SubmodelMsg m;
  m.round = 3;
  m.mask = sample_mask();
  m.values = {0.5F, -1.0F, 2.25F};
  return m;
}

UpdateMsg sample_update() {
  UpdateMsg u;
  u.round = 4;
  u.participant = 9;
  u.reward = 0.75F;
  u.loss = 1.25F;
  u.mask = sample_mask();
  u.grads = {-0.5F, 0.125F, 8.0F, 1.0F};
  return u;
}

constexpr int kClients = 4;

ClientRegistry sample_registry() {
  ChurnPlan plan;
  plan.burst_fraction = 0.5;
  plan.burst_round = 2;
  plan.burst_away = 2;
  const ChurnModel churn(plan, kClients);
  ClientRegistry reg(kClients);
  for (int round = 0; round < 6; ++round) {
    const auto mem = reg.begin_round(churn, round);
    for (int c = 0; c < kClients; ++c) {
      if (mem.live_mask[static_cast<std::size_t>(c)] == 0) continue;
      // A second sample of 0 keeps the latency EMA exact whether or not
      // the build fuses its multiply-add.
      reg.note_dispatch(c, round == 0 ? 1.5 + c : 0.0);
      reg.note_applied(c, (round + c) % 3);
    }
  }
  return reg;
}

DegradationController sample_degrade() {
  DegradeConfig cfg;
  cfg.max_mode = 3;
  cfg.trip_rounds = 2;
  cfg.recover_rounds = 3;
  DegradationController d;
  for (const bool bad : {true, true, true, true, false, true, false, false}) {
    d.observe(bad, cfg);
  }
  return d;
}

DeadlineEstimator sample_deadline() {
  DeadlineEstimator e;
  for (const double s : {1.5, 0.25, 3.0, 0.75}) e.add_sample(s, 8);
  return e;
}

template <class T>
std::vector<std::uint8_t> bytes_of(const T& v) {
  ByteWriter w;
  v.serialize(w);
  return w.take();
}

// Restores `into` from `bytes`, which it must consume exactly.
template <class T>
T restored(const std::vector<std::uint8_t>& bytes, T into) {
  ByteReader r(bytes);
  into.restore(r);
  EXPECT_TRUE(r.exhausted());
  return into;
}

SearchConfig tiny_config() {
  SearchConfig cfg;
  cfg.supernet.num_cells = 3;
  cfg.supernet.num_nodes = 2;
  cfg.supernet.stem_channels = 4;
  cfg.supernet.image_size = 8;
  cfg.schedule.batch_size = 8;
  cfg.schedule.num_participants = kClients;
  cfg.seed = 7;
  return cfg;
}

TEST(DurabilityLayout, RoundRecord) {
  const std::vector<std::uint8_t> g = golden("round_record");
  EXPECT_EQ(bytes_of(sample_record()), g);
  EXPECT_EQ(bytes_of(restored(g, RoundRecord{})), g);
}

TEST(DurabilityLayout, JournalFrame) {
  const std::vector<std::uint8_t> g = golden("journal_frame");
  EXPECT_EQ(sample_frame().serialize(), g);
  EXPECT_EQ(JournalFrame::deserialize(g).serialize(), g);
}

TEST(DurabilityLayout, CheckpointV2) {
  const std::vector<std::uint8_t> g = golden("checkpoint_v2");
  EXPECT_EQ(sample_checkpoint(2).serialize(), g);
  const SearchCheckpoint back = SearchCheckpoint::deserialize(g);
  EXPECT_TRUE(back.baseline_initialized);
  EXPECT_EQ(back.runtime_state, sample_checkpoint(2).runtime_state);
  EXPECT_EQ(back.serialize(), g);
}

TEST(DurabilityLayout, CheckpointV1LoadsWeightsOnly) {
  const std::vector<std::uint8_t> g = golden("checkpoint_v1");
  EXPECT_EQ(sample_checkpoint(1).serialize(), g);
  const SearchCheckpoint back = SearchCheckpoint::deserialize(g);
  EXPECT_EQ(back.version, 1U);
  EXPECT_FALSE(back.has_runtime_state());
  // v1 predates the flag: a non-zero baseline means it was live.
  EXPECT_TRUE(back.baseline_initialized);
  EXPECT_EQ(back.serialize(), g);
}

TEST(DurabilityLayout, Genotype) {
  const std::vector<std::uint8_t> g = golden("genotype");
  EXPECT_EQ(serialize_genotype(sample_genotype()), g);
  EXPECT_EQ(serialize_genotype(deserialize_genotype(g)), g);
}

TEST(DurabilityLayout, SubmodelMsg) {
  const std::vector<std::uint8_t> g = golden("submodel_msg");
  EXPECT_EQ(sample_submodel().serialize(), g);
  EXPECT_EQ(SubmodelMsg::deserialize(g).serialize(), g);
}

TEST(DurabilityLayout, UpdateMsg) {
  const std::vector<std::uint8_t> g = golden("update_msg");
  EXPECT_EQ(sample_update().serialize(), g);
  EXPECT_EQ(UpdateMsg::deserialize(g).serialize(), g);
}

TEST(DurabilityLayout, ClientRegistry) {
  const std::vector<std::uint8_t> g = golden("client_registry");
  EXPECT_EQ(bytes_of(sample_registry()), g);
  EXPECT_EQ(bytes_of(restored(g, ClientRegistry(kClients))), g);
}

TEST(DurabilityLayout, DegradationController) {
  const std::vector<std::uint8_t> g = golden("degradation_controller");
  EXPECT_EQ(bytes_of(sample_degrade()), g);
  EXPECT_EQ(bytes_of(restored(g, DegradationController{})), g);
}

TEST(DurabilityLayout, DeadlineEstimator) {
  const std::vector<std::uint8_t> g = golden("deadline_estimator");
  EXPECT_EQ(bytes_of(sample_deadline()), g);
  EXPECT_EQ(bytes_of(restored(g, DeadlineEstimator{})), g);
}

TEST(DurabilityLayout, FreshSearchRuntimeState) {
  Rng rng(51);
  SynthSpec spec;
  spec.train_size = 64;
  spec.test_size = 16;
  spec.image_size = 8;
  const TrainTest tt = make_synth_c10(spec, rng);
  const SearchConfig cfg = tiny_config();
  FederatedSearch search(cfg, tt.train,
                         iid_partition(tt.train.size(), kClients, rng));
  const std::vector<std::uint8_t> g = golden("runtime_state");
  SearchCheckpoint ckpt = search.checkpoint();
  // Each bandwidth trace starts from one std::normal_distribution draw,
  // whose float arithmetic an optimized FMA build fuses and any other
  // build does not; the golden holds the fused draws, so the fresh bytes
  // match it only there. The read-back below holds in every build.
#if defined(__OPTIMIZE__) && defined(__FMA__)
  EXPECT_EQ(ckpt.runtime_state, g);
#endif
  // Read the golden into a second search and write it back out.
  FederatedSearch other(cfg, tt.train,
                        iid_partition(tt.train.size(), kClients, rng));
  ckpt.runtime_state = g;
  other.restore(ckpt);
  EXPECT_EQ(other.checkpoint().runtime_state, g);
}

}  // namespace
}  // namespace fms
