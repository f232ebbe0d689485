// Tests for the FLOPs counter, checkpointing, and the round-time
// simulator.
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "gtest/gtest.h"
#include "src/core/checkpoint.h"
#include "src/core/journal.h"
#include "src/core/search.h"
#include "src/data/synth.h"
#include "src/nas/flops.h"
#include "src/sim/round_time.h"

namespace fms {
namespace {

TEST(Flops, ZeroOpIsFree) {
  EXPECT_EQ(op_macs(OpType::kZero, 8, 16, 1), 0u);
  EXPECT_EQ(op_macs(OpType::kIdentity, 8, 16, 1), 0u);
}

TEST(Flops, ConvOpsScaleWithChannelsSquared) {
  // Pointwise 1x1 inside sep-conv is O(C^2): doubling channels must grow
  // MACs by more than 2x.
  const auto c8 = op_macs(OpType::kSepConv3, 8, 16, 1);
  const auto c16 = op_macs(OpType::kSepConv3, 16, 16, 1);
  EXPECT_GT(c16, 2 * c8);
}

TEST(Flops, Sep5CostsMoreThanSep3) {
  EXPECT_GT(op_macs(OpType::kSepConv5, 8, 16, 1),
            op_macs(OpType::kSepConv3, 8, 16, 1));
}

TEST(Flops, StrideReducesCost) {
  EXPECT_LT(op_macs(OpType::kSepConv3, 8, 16, 2),
            op_macs(OpType::kSepConv3, 8, 16, 1));
}

TEST(Flops, SubmodelMacsTrackMaskCost) {
  SupernetConfig cfg;
  cfg.num_cells = 3;
  cfg.num_nodes = 2;
  cfg.stem_channels = 4;
  cfg.image_size = 8;
  const int edges = Cell::num_edges(2);
  Mask zeros, seps;
  zeros.normal.assign(static_cast<std::size_t>(edges), 0);  // all "none"
  zeros.reduce.assign(static_cast<std::size_t>(edges), 0);
  seps.normal.assign(static_cast<std::size_t>(edges), 5);   // all sep5
  seps.reduce.assign(static_cast<std::size_t>(edges), 5);
  EXPECT_GT(submodel_macs(cfg, seps), submodel_macs(cfg, zeros));
  EXPECT_GT(submodel_macs(cfg, zeros), 0u);  // stem + pre + classifier
}

TEST(Flops, GenotypeMacsPositiveAndBelowFullSepSupernet) {
  SupernetConfig cfg;
  cfg.num_cells = 3;
  cfg.num_nodes = 2;
  cfg.stem_channels = 4;
  cfg.image_size = 8;
  Rng rng(4);
  AlphaTable a(static_cast<std::size_t>(Cell::num_edges(2)));
  for (auto& row : a)
    for (auto& v : row) v = rng.normal();
  Genotype g = discretize(a, a, 2);
  const auto macs = genotype_macs(cfg, g);
  EXPECT_GT(macs, 0u);
  Mask all_sep5;
  all_sep5.normal.assign(a.size(), 5);
  all_sep5.reduce.assign(a.size(), 5);
  // A genotype keeps only 2 edges/node, so it costs no more than the
  // densest possible sub-model.
  EXPECT_LE(macs, submodel_macs(cfg, all_sep5));
}

// Exact counts on a 4-cell, 3-node stack (reduction cells at 1 and 2, so
// cell 3 also has a reduction predecessor), recorded before the stack
// schedule moved into cell_specs(): they pin the Table V cost model.
SupernetConfig pinned_stack() {
  SupernetConfig cfg;
  cfg.num_cells = 4;
  cfg.num_nodes = 3;
  cfg.stem_channels = 8;
  cfg.image_size = 16;
  cfg.num_classes = 10;
  cfg.image_channels = 3;
  return cfg;
}

TEST(Flops, SubmodelMacsPinned) {
  const Mask mixed_ops{{0, 1, 2, 3, 4, 5, 6, 7, 1}, {7, 6, 5, 4, 3, 2, 1, 0, 4}};
  const Mask sep_and_skip{{4, 4, 4, 4, 4, 4, 4, 4, 4},
                          {1, 1, 1, 1, 1, 1, 1, 1, 1}};
  EXPECT_EQ(submodel_macs(pinned_stack(), mixed_ops), 1510336u);
  EXPECT_EQ(submodel_macs(pinned_stack(), sep_and_skip), 1718720u);
}

TEST(Flops, GenotypeMacsPinned) {
  // Edge inputs within a node deliberately do not ascend.
  Genotype g;
  g.nodes = 3;
  g.normal = {{1, OpType::kSepConv3}, {0, OpType::kIdentity},
              {2, OpType::kDilConv5}, {0, OpType::kMaxPool3},
              {3, OpType::kSepConv5}, {1, OpType::kAvgPool3}};
  g.reduce = {{1, OpType::kMaxPool3}, {0, OpType::kSepConv5},
              {2, OpType::kIdentity}, {1, OpType::kDilConv3},
              {3, OpType::kSepConv3}, {0, OpType::kIdentity}};
  EXPECT_EQ(genotype_macs(pinned_stack(), g), 1267648u);
}

TEST(Flops, SupernetMixedMacsPinned) {
  EXPECT_EQ(supernet_mixed_macs(pinned_stack()), 8925632u);
}

TEST(Checkpoint, SerializeRoundTrip) {
  SearchCheckpoint ckpt;
  ckpt.num_edges = 5;
  ckpt.num_nodes = 2;
  ckpt.round = 17;
  ckpt.baseline = 0.42;
  ckpt.theta = {1.0F, 2.0F, 3.0F};
  ckpt.alpha = AlphaPair::zeros(5);
  ckpt.alpha.normal[2][3] = 1.5F;
  SearchCheckpoint back = SearchCheckpoint::deserialize(ckpt.serialize());
  EXPECT_EQ(back.round, 17);
  EXPECT_DOUBLE_EQ(back.baseline, 0.42);
  EXPECT_EQ(back.theta, ckpt.theta);
  EXPECT_FLOAT_EQ(back.alpha.normal[2][3], 1.5F);
}

TEST(Checkpoint, RejectsGarbage) {
  std::vector<std::uint8_t> garbage{1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_THROW(SearchCheckpoint::deserialize(garbage), CheckError);
}

TEST(Checkpoint, RestoreValidatesShapes) {
  SupernetConfig cfg;
  cfg.num_cells = 3;
  cfg.num_nodes = 2;
  cfg.stem_channels = 4;
  cfg.image_size = 8;
  Rng rng(5);
  Supernet net(cfg, rng);
  ArchPolicy policy(net.num_edges(), AlphaOptConfig{});
  SearchCheckpoint ckpt = make_checkpoint(net, policy, 2, 3);
  // Mutate then restore: values must come back.
  std::vector<float> orig = net.flat_values();
  std::vector<float> tweaked = orig;
  for (auto& v : tweaked) v += 1.0F;
  net.set_flat_values(tweaked);
  restore_checkpoint(ckpt, net, policy);
  EXPECT_EQ(net.flat_values(), orig);
  // Wrong shape must throw.
  ckpt.theta.pop_back();
  EXPECT_THROW(restore_checkpoint(ckpt, net, policy), CheckError);
}

TEST(Checkpoint, FileRoundTripAndGenotypeFile) {
  const std::string dir = ::testing::TempDir();
  const std::string ckpt_path = dir + "/fms_test.ckpt";
  const std::string geno_path = dir + "/fms_test.geno";

  SearchCheckpoint ckpt;
  ckpt.num_edges = 2;
  ckpt.num_nodes = 1;
  ckpt.theta = {9.0F};
  ckpt.alpha = AlphaPair::zeros(2);
  write_checkpoint_file(ckpt_path, ckpt);
  SearchCheckpoint back = read_checkpoint_file(ckpt_path);
  EXPECT_EQ(back.theta, ckpt.theta);

  Rng rng(6);
  AlphaTable a(static_cast<std::size_t>(Cell::num_edges(2)));
  for (auto& row : a)
    for (auto& v : row) v = rng.normal();
  Genotype g = discretize(a, a, 2);
  write_genotype_file(geno_path, g);
  Genotype gback = read_genotype_file(geno_path);
  EXPECT_EQ(gback.nodes, g.nodes);
  ASSERT_EQ(gback.normal.size(), g.normal.size());
  for (std::size_t i = 0; i < g.normal.size(); ++i) {
    EXPECT_EQ(gback.normal[i].input, g.normal[i].input);
    EXPECT_EQ(gback.normal[i].op, g.normal[i].op);
  }
  std::filesystem::remove(ckpt_path);
  std::filesystem::remove(geno_path);
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void put_bytes(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

// Randomized corruption fuzz over the durable-file readers: for N seeded
// trials, flip or truncate random bytes and assert the loader always
// returns a clean indexed CheckError — never crashes, never silently
// loads garbage. The CRC trailer makes *every* byte flip detectable.
TEST(Checkpoint, CorruptionFuzzAlwaysYieldsCleanError) {
  const std::string dir = ::testing::TempDir();
  const std::string ckpt_path = dir + "/fms_fuzz.ckpt";
  const std::string geno_path = dir + "/fms_fuzz.geno";

  SearchCheckpoint ckpt;
  ckpt.num_edges = 5;
  ckpt.num_nodes = 2;
  ckpt.round = 9;
  ckpt.theta.assign(300, 0.25F);
  ckpt.alpha = AlphaPair::zeros(5);
  ckpt.runtime_state.assign(200, 0x5A);
  write_checkpoint_file(ckpt_path, ckpt);
  const std::vector<std::uint8_t> ckpt_good = file_bytes(ckpt_path);

  Rng grng(31);
  AlphaTable at(static_cast<std::size_t>(Cell::num_edges(2)));
  for (auto& row : at)
    for (auto& v : row) v = grng.normal();
  const Genotype g = discretize(at, at, 2);
  write_genotype_file(geno_path, g);
  const std::vector<std::uint8_t> geno_good = file_bytes(geno_path);

  Rng fuzz(0xF022);
  for (int trial = 0; trial < 150; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    for (const auto* target : {&ckpt_path, &geno_path}) {
      const auto& good = target == &ckpt_path ? ckpt_good : geno_good;
      std::vector<std::uint8_t> bad = good;
      if (trial % 3 == 0) {
        // Truncation (a torn write).
        bad.resize(static_cast<std::size_t>(
            fuzz.randint(0, static_cast<int>(bad.size()) - 1)));
      } else {
        // 1-4 byte flips anywhere in the file.
        const int flips = fuzz.randint(1, 4);
        for (int f = 0; f < flips; ++f) {
          const auto idx = static_cast<std::size_t>(
              fuzz.randint(0, static_cast<int>(bad.size()) - 1));
          bad[idx] ^= static_cast<std::uint8_t>(fuzz.randint(1, 255));
        }
      }
      put_bytes(*target, bad);
      if (target == &ckpt_path) {
        EXPECT_THROW(read_checkpoint_file(*target), CheckError);
      } else {
        EXPECT_THROW(read_genotype_file(*target), CheckError);
      }
    }
  }
  // The pristine bytes still load — the fuzz loop really was testing the
  // corruption, not a broken fixture.
  put_bytes(ckpt_path, ckpt_good);
  put_bytes(geno_path, geno_good);
  EXPECT_EQ(read_checkpoint_file(ckpt_path).theta, ckpt.theta);
  EXPECT_EQ(read_genotype_file(geno_path).nodes, g.nodes);
  std::filesystem::remove(ckpt_path);
  std::filesystem::remove(geno_path);
}

// Same fuzz over the journal's tolerant loader: it must never throw —
// corruption just shortens the valid frame prefix (torn-tail rule).
TEST(Checkpoint, JournalCorruptionFuzzKeepsAValidPrefix) {
  const std::string dir = ::testing::TempDir();
  const std::string wal_path = dir + "/fms_fuzz.wal";
  {
    RoundJournal wal(wal_path, FaultPlan{});
    for (int t = 0; t < 4; ++t) {
      JournalFrame f;
      f.phase = t < 2 ? 0 : 1;
      f.round = t;
      f.record.round = t;
      f.record.mean_reward = 0.1 * t;
      f.rng_cursor = "cursor-" + std::to_string(t);
      f.staleness_cursor = "stale-" + std::to_string(t);
      wal.append(f);
    }
  }
  const std::vector<std::uint8_t> good = file_bytes(wal_path);
  Rng fuzz(0xF023);
  for (int trial = 0; trial < 150; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<std::uint8_t> bad = good;
    if (trial % 3 == 0) {
      bad.resize(static_cast<std::size_t>(
          fuzz.randint(0, static_cast<int>(bad.size()) - 1)));
    } else {
      const auto idx = static_cast<std::size_t>(
          fuzz.randint(0, static_cast<int>(bad.size()) - 1));
      bad[idx] ^= static_cast<std::uint8_t>(fuzz.randint(1, 255));
    }
    put_bytes(wal_path, bad);
    const RoundJournal::LoadResult got = RoundJournal::load(wal_path);
    // Whatever survived is a prefix of the original frames, verbatim.
    ASSERT_LE(got.frames.size(), 4u);
    for (std::size_t i = 0; i < got.frames.size(); ++i) {
      EXPECT_EQ(got.frames[i].round, static_cast<int>(i));
      EXPECT_EQ(got.frames[i].rng_cursor, "cursor-" + std::to_string(i));
    }
    EXPECT_EQ(got.valid_bytes + got.torn_bytes, bad.size());
  }
  put_bytes(wal_path, good);
  EXPECT_EQ(RoundJournal::load(wal_path).frames.size(), 4u);
  std::filesystem::remove(wal_path);
}

TEST(Checkpoint, SearchResumesFromCheckpoint) {
  // Run a short search, checkpoint it, restore the state into a fresh
  // search instance, and verify the restored search continues from the
  // saved weights/policy rather than from scratch.
  Rng rng(20);
  SynthSpec spec;
  spec.train_size = 120;
  spec.test_size = 30;
  spec.image_size = 8;
  TrainTest tt = make_synth_c10(spec, rng);
  SearchConfig cfg;
  cfg.supernet.num_cells = 3;
  cfg.supernet.num_nodes = 2;
  cfg.supernet.stem_channels = 4;
  cfg.supernet.image_size = 8;
  cfg.schedule.batch_size = 8;
  auto parts = iid_partition(tt.train.size(), 3, rng);

  FederatedSearch first(cfg, tt.train, parts);
  first.run_warmup(3);
  first.run_search(4, SearchOptions{});
  SearchCheckpoint ckpt = make_checkpoint(first.supernet(), first.policy(),
                                          cfg.supernet.num_nodes, 7);
  const std::string path = ::testing::TempDir() + "/fms_resume.ckpt";
  write_checkpoint_file(path, ckpt);

  FederatedSearch resumed(cfg, tt.train, parts);
  SearchCheckpoint loaded = read_checkpoint_file(path);
  EXPECT_EQ(loaded.round, 7);
  restore_checkpoint(loaded, resumed.supernet(), resumed.policy());
  EXPECT_EQ(resumed.supernet().flat_values(), first.supernet().flat_values());
  EXPECT_EQ(resumed.policy().alpha().flatten(),
            first.policy().alpha().flatten());
  // And it keeps searching without issue.
  auto records = resumed.run_search(2, SearchOptions{});
  EXPECT_EQ(records.size(), 2u);
  std::filesystem::remove(path);
}

TEST(RoundTime, SoftSyncIsNeverSlowerThanHard) {
  RoundTimeConfig cfg;
  cfg.rounds = 100;
  std::vector<NetEnvironment> envs(10, NetEnvironment::kCar);
  Rng rng(7);
  RoundTimeResult res = simulate_round_time(cfg, envs, rng);
  EXPECT_LE(res.soft_total_seconds, res.hard_total_seconds + 1e-9);
  EXPECT_GT(res.soft_total_seconds, 0.0);
}

TEST(RoundTime, WaitFraction1IsHardSync) {
  RoundTimeConfig cfg;
  cfg.rounds = 50;
  cfg.wait_fraction = 1.0;
  cfg.participants = 6;
  std::vector<NetEnvironment> envs(6, NetEnvironment::kBus);
  Rng rng(8);
  RoundTimeResult res = simulate_round_time(cfg, envs, rng);
  EXPECT_NEAR(res.soft_total_seconds, res.hard_total_seconds, 1e-9);
  // Everything arrives within its own round.
  EXPECT_NEAR(res.induced_staleness[0], 1.0, 1e-9);
}

TEST(RoundTime, AggressiveDeadlineInducesStaleness) {
  RoundTimeConfig cfg;
  cfg.rounds = 200;
  cfg.wait_fraction = 0.5;
  cfg.straggler_p = 0.3;
  std::vector<NetEnvironment> envs(10, NetEnvironment::kTrain);
  Rng rng(9);
  RoundTimeResult res = simulate_round_time(cfg, envs, rng);
  EXPECT_LT(res.induced_staleness[0], 1.0);
  double mass = 0.0;
  for (double v : res.induced_staleness) mass += v;
  EXPECT_NEAR(mass, 1.0, 1e-9);
  EXPECT_LT(res.mean_soft_round, res.mean_hard_round);
}

}  // namespace
}  // namespace fms
