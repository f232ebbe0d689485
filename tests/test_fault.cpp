// Robustness surface: deterministic fault injection, the server-side
// defenses (screening, quorum commit, retransmit), checkpoint corruption
// handling, and kill-and-resume crash-recovery. Selected with
// `ctest -L fault`.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/checkpoint.h"
#include "src/core/deadline.h"
#include "src/core/search.h"
#include "src/data/synth.h"
#include "src/fault/fault.h"
#include "src/net/transmission.h"
#include "src/sim/staleness.h"

namespace fms {
namespace {

SearchConfig tiny_config() {
  SearchConfig cfg;
  cfg.supernet.num_cells = 3;
  cfg.supernet.num_nodes = 2;
  cfg.supernet.stem_channels = 4;
  cfg.supernet.image_size = 8;
  cfg.schedule.batch_size = 8;
  cfg.schedule.num_participants = 4;
  cfg.seed = 7;
  return cfg;
}

TrainTest tiny_data(Rng& rng) {
  SynthSpec spec;
  spec.train_size = 160;
  spec.test_size = 40;
  spec.image_size = 8;
  return make_synth_c10(spec, rng);
}

UpdateMsg clean_update() {
  UpdateMsg upd;
  upd.round = 3;
  upd.participant = 1;
  upd.reward = 0.4F;
  upd.loss = 1.7F;
  upd.grads = {0.1F, -0.2F, 0.05F};
  return upd;
}

// --- FaultInjector: determinism and schedule semantics ---

TEST(FaultInjector, DeterministicAndQueryOrderIndependent) {
  FaultPlan plan = FaultPlan::severe(/*seed=*/11);
  plan.dropout_p = 0.1;
  plan.link_failure_p = 0.2;
  const FaultInjector a(plan, 20);
  const FaultInjector b(plan, 20);
  // Query b in reverse order: pure functions must not care.
  for (int p = 0; p < 20; ++p) {
    for (int r = 0; r < 30; ++r) {
      const int rp = 19 - p;
      const int rr = 29 - r;
      EXPECT_EQ(a.is_offline(rp, rr), b.is_offline(rp, rr));
      EXPECT_EQ(a.payload_fault(rp, rr), b.payload_fault(rp, rr));
      const LinkOutcome la = a.link_outcome(rp, rr, 2, 0.5);
      const LinkOutcome lb = b.link_outcome(rp, rr, 2, 0.5);
      EXPECT_EQ(la.delivered, lb.delivered);
      EXPECT_EQ(la.retransmits, lb.retransmits);
      EXPECT_DOUBLE_EQ(la.extra_seconds, lb.extra_seconds);
      EXPECT_DOUBLE_EQ(la.bandwidth_scale, lb.bandwidth_scale);
    }
  }
  // A different seed reshuffles the schedule.
  FaultPlan other = plan;
  other.seed = 12;
  const FaultInjector c(other, 20);
  int differing = 0;
  for (int p = 0; p < 20; ++p) {
    for (int r = 0; r < 30; ++r) {
      if (a.is_offline(p, r) != c.is_offline(p, r)) ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultInjector, CrashesArePermanentAndRoughlyMatchFraction) {
  FaultPlan plan;
  plan.crash_fraction = 0.3;
  plan.crash_round = 2;
  plan.crash_spread = 5;
  const FaultInjector inj(plan, 100);
  int crashed = 0;
  for (int p = 0; p < 100; ++p) {
    if (inj.is_crashed(p, 50)) {
      ++crashed;
      // Once dark, always dark.
      for (int r = 51; r < 60; ++r) EXPECT_TRUE(inj.is_crashed(p, r));
    }
    // Nobody crashes before the window opens.
    EXPECT_FALSE(inj.is_crashed(p, 1));
  }
  EXPECT_GT(crashed, 15);
  EXPECT_LT(crashed, 45);
}

TEST(FaultInjector, DropoutsRecoverAfterConfiguredRounds) {
  FaultPlan plan;
  plan.dropout_p = 0.3;
  plan.dropout_rounds = 2;
  const FaultInjector inj(plan, 10);
  int observed_dropouts = 0;
  int observed_recoveries = 0;
  for (int p = 0; p < 10; ++p) {
    for (int r = 0; r < 40; ++r) {
      if (!inj.is_dropped_out(p, r)) continue;
      ++observed_dropouts;
      // A transient dropout must end within dropout_rounds of any start.
      for (int ahead = 1; ahead <= plan.dropout_rounds + 1; ++ahead) {
        if (!inj.is_dropped_out(p, r + ahead)) {
          ++observed_recoveries;
          break;
        }
      }
    }
  }
  EXPECT_GT(observed_dropouts, 0);
  EXPECT_GT(observed_recoveries, 0);
}

TEST(FaultInjector, LinkOutcomesRespectRetransmitBudget) {
  FaultPlan always;
  always.link_failure_p = 1.0;
  const FaultInjector dead(always, 4);
  const LinkOutcome out = dead.link_outcome(0, 0, 3, 0.5);
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(out.retransmits, 3);
  EXPECT_TRUE(out.faulted());

  FaultPlan never;
  never.link_failure_p = 0.0;
  never.corrupt_p = 0.001;  // keep the plan non-empty
  const FaultInjector fine(never, 4);
  const LinkOutcome ok = fine.link_outcome(0, 0, 3, 0.5);
  EXPECT_TRUE(ok.delivered);
  EXPECT_EQ(ok.retransmits, 0);
  EXPECT_FALSE(ok.faulted());

  FaultPlan flaky;
  flaky.link_failure_p = 0.5;
  const FaultInjector some(flaky, 32);
  bool saw_recovered_retry = false;
  for (int p = 0; p < 32 && !saw_recovered_retry; ++p) {
    for (int r = 0; r < 32 && !saw_recovered_retry; ++r) {
      const LinkOutcome o = some.link_outcome(p, r, 4, 0.25);
      if (o.delivered && o.retransmits > 0) {
        EXPECT_GT(o.extra_seconds, 0.0);  // backoff was paid
        saw_recovered_retry = true;
      }
    }
  }
  EXPECT_TRUE(saw_recovered_retry);
}

TEST(FaultInjector, DivergentWinsOverCorruptPayload) {
  FaultPlan plan;
  plan.corrupt_p = 1.0;
  plan.divergent_fraction = 1.0;
  plan.divergent_p = 1.0;
  const FaultInjector inj(plan, 3);
  for (int p = 0; p < 3; ++p) {
    const auto pf = inj.payload_fault(p, 0);
    ASSERT_TRUE(pf.has_value());
    EXPECT_EQ(*pf, FaultKind::kDivergent);
  }
}

TEST(FaultInjector, UpdateFaultIsPayloadFaultElseByzantineKind) {
  // Every family that can ride on an update is active at once, so the
  // grid sees payload faults, Byzantine kinds, overlaps and clean updates.
  const FaultPlan plan = FaultPlan::parse(
      "corrupt=0.2,divergent=0.3,divergent_p=0.5,sign_flip=0.2,"
      "grad_scale=0.2,collude=0.2,reward_attack=0.2,seed=41");
  const FaultInjector inj(plan, 24);
  int payload = 0;
  int byzantine = 0;
  int clean = 0;
  for (int p = 0; p < 24; ++p) {
    for (int r = 0; r < 24; ++r) {
      const auto pf = inj.payload_fault(p, r);
      const auto expected = pf.has_value() ? pf : inj.byzantine_kind(p, r);
      EXPECT_EQ(inj.update_fault(p, r), expected) << "p=" << p << " r=" << r;
      if (pf.has_value()) {
        ++payload;
      } else if (expected.has_value()) {
        ++byzantine;
      } else {
        ++clean;
      }
    }
  }
  EXPECT_GT(payload, 0);
  EXPECT_GT(byzantine, 0);
  EXPECT_GT(clean, 0);
  // An inactive plan attaches nothing.
  const FaultInjector none(FaultPlan{}, 24);
  EXPECT_FALSE(none.update_fault(3, 5).has_value());
}

TEST(FaultInjector, CorruptFlipsBitsDeterministically) {
  FaultPlan plan;
  plan.corrupt_p = 1.0;
  plan.corrupt_bits = 4;
  const FaultInjector inj(plan, 2);
  const std::vector<float> original(32, 1.5F);
  std::vector<float> a = original;
  std::vector<float> b = original;
  inj.corrupt(a, 1, 7);
  inj.corrupt(b, 1, 7);
  EXPECT_EQ(a, b);        // deterministic per (participant, round)
  EXPECT_NE(a, original); // and actually destructive
  std::vector<float> c = original;
  inj.corrupt(c, 1, 8);
  EXPECT_NE(a, c);        // different round, different flips
}

TEST(FaultInjector, PoisonedUpdatesAreCaughtByScreening) {
  FaultPlan plan;
  plan.divergent_fraction = 1.0;
  plan.divergent_p = 1.0;
  const FaultInjector inj(plan, 8);
  for (int p = 0; p < 8; ++p) {
    for (int r = 0; r < 4; ++r) {
      UpdateMsg upd = clean_update();
      upd.participant = p;
      upd.grads.assign(64, 0.01F);
      inj.poison(upd, p, r);
      EXPECT_NE(screen_update(upd, 1e4F), nullptr)
          << "participant " << p << " round " << r;
    }
  }
}

// --- FaultPlan parsing ---

TEST(FaultPlan, ParsesSpecAndRoundTripsThroughToString) {
  const FaultPlan plan = FaultPlan::parse(
      "crash=0.3,crash_round=5,crash_spread=10,dropout=0.1,dropout_rounds=3,"
      "link=0.2,collapse=0.05,collapse_factor=0.1,corrupt=0.15,"
      "corrupt_bits=4,divergent=0.25,divergent_p=0.6,seed=99");
  EXPECT_DOUBLE_EQ(plan.crash_fraction, 0.3);
  EXPECT_EQ(plan.crash_round, 5);
  EXPECT_EQ(plan.crash_spread, 10);
  EXPECT_DOUBLE_EQ(plan.dropout_p, 0.1);
  EXPECT_EQ(plan.dropout_rounds, 3);
  EXPECT_DOUBLE_EQ(plan.link_failure_p, 0.2);
  EXPECT_DOUBLE_EQ(plan.collapse_p, 0.05);
  EXPECT_DOUBLE_EQ(plan.collapse_factor, 0.1);
  EXPECT_DOUBLE_EQ(plan.corrupt_p, 0.15);
  EXPECT_EQ(plan.corrupt_bits, 4);
  EXPECT_DOUBLE_EQ(plan.divergent_fraction, 0.25);
  EXPECT_DOUBLE_EQ(plan.divergent_p, 0.6);
  EXPECT_EQ(plan.seed, 99u);
  EXPECT_FALSE(plan.empty());

  const FaultPlan again = FaultPlan::parse(plan.to_string());
  EXPECT_DOUBLE_EQ(again.crash_fraction, plan.crash_fraction);
  EXPECT_DOUBLE_EQ(again.corrupt_p, plan.corrupt_p);
  EXPECT_EQ(again.seed, plan.seed);
}

TEST(FaultPlan, RejectsUnknownKeysAndBadValues) {
  EXPECT_THROW(FaultPlan::parse("nope=1"), CheckError);
  EXPECT_THROW(FaultPlan::parse("crash=1.5"), CheckError);   // not a prob
  EXPECT_THROW(FaultPlan::parse("crash=-0.1"), CheckError);
  EXPECT_THROW(FaultPlan::parse("crash=abc"), CheckError);
  EXPECT_THROW(FaultPlan::parse("crash"), CheckError);       // missing '='
  EXPECT_THROW(FaultPlan::parse("=0.5"), CheckError);
  EXPECT_THROW(FaultPlan::parse("crash="), CheckError);
  EXPECT_THROW(FaultPlan::parse("crash=0.5x"), CheckError);
  // Integer keys take integer literals inside the field's range.
  EXPECT_THROW(FaultPlan::parse("crash_round=1e10"), CheckError);
  EXPECT_THROW(FaultPlan::parse("crash_round=4294967296"), CheckError);
  EXPECT_THROW(FaultPlan::parse("crash_spread=2.7"), CheckError);
  // Seeds are exact unsigned 64-bit literals.
  EXPECT_THROW(FaultPlan::parse("seed=-1"), CheckError);
  EXPECT_THROW(FaultPlan::parse("seed=18446744073709551616"), CheckError);
  EXPECT_THROW(FaultPlan::parse("seed=1e3"), CheckError);
  EXPECT_THROW(FaultPlan::parse("collapse_factor=0"), CheckError);
  EXPECT_THROW(FaultPlan::parse("collude_scale=0"), CheckError);
  EXPECT_TRUE(FaultPlan::parse("").empty());
}

// --- update screening ---

TEST(ScreenUpdate, AcceptsCleanRejectsPoisoned) {
  EXPECT_EQ(screen_update(clean_update(), 1e4F), nullptr);

  UpdateMsg nan_reward = clean_update();
  nan_reward.reward = std::numeric_limits<float>::quiet_NaN();
  EXPECT_STREQ(screen_update(nan_reward, 1e4F), "reward_out_of_range");

  UpdateMsg big_reward = clean_update();
  big_reward.reward = 1e6F;
  EXPECT_STREQ(screen_update(big_reward, 1e4F), "reward_out_of_range");

  UpdateMsg inf_loss = clean_update();
  inf_loss.loss = std::numeric_limits<float>::infinity();
  EXPECT_STREQ(screen_update(inf_loss, 1e4F), "loss_not_finite");

  UpdateMsg nan_grad = clean_update();
  nan_grad.grads[1] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_STREQ(screen_update(nan_grad, 1e4F), "grad_not_finite");

  UpdateMsg exploding = clean_update();
  exploding.grads.assign(16, 1e10F);
  EXPECT_STREQ(screen_update(exploding, 1e4F), "grad_norm_outlier");
  // A non-positive bound disables only the norm check.
  EXPECT_EQ(screen_update(exploding, 0.0F), nullptr);
  EXPECT_STREQ(screen_update(nan_grad, 0.0F), "grad_not_finite");
}

// --- satellite: dead links in the latency model ---

TEST(Transmission, ZeroBandwidthIsAFailedLinkNotANaN) {
  const std::vector<std::size_t> bytes = {1000, 1000, 1000};
  const std::vector<double> bw = {8000.0, 0.0, -5.0};
  const std::vector<int> assign = {0, 1, 2};
  const LatencyStats stats = transmission_latency(bytes, bw, assign, false);
  EXPECT_EQ(stats.failed_links, 2);
  ASSERT_EQ(stats.per_participant.size(), 3u);
  EXPECT_DOUBLE_EQ(stats.per_participant[0], 1.0);
  EXPECT_TRUE(std::isinf(stats.per_participant[1]));
  EXPECT_TRUE(std::isinf(stats.per_participant[2]));
  // Aggregates cover working links only and stay finite.
  EXPECT_DOUBLE_EQ(stats.max_seconds, 1.0);
  EXPECT_DOUBLE_EQ(stats.mean_seconds, 1.0);
}

// --- satellite: staleness distribution validation ---

TEST(Staleness, ConstructorRejectsInvalidDistributions) {
  EXPECT_THROW(StalenessDistribution({0.5, -0.1}), CheckError);
  EXPECT_THROW(StalenessDistribution({0.8, 0.4}), CheckError);  // sum > 1
  EXPECT_THROW(
      StalenessDistribution({std::numeric_limits<double>::quiet_NaN()}),
      CheckError);
  EXPECT_THROW(
      StalenessDistribution({std::numeric_limits<double>::infinity()}),
      CheckError);
  // Empty stays legal: "every update exceeds the threshold" (total loss).
  EXPECT_NO_THROW(StalenessDistribution(std::vector<double>{}));
  EXPECT_NO_THROW(StalenessDistribution({0.3, 0.3, 0.3}));
}

// --- satellite: checkpoint corruption coverage ---

SearchCheckpoint sample_checkpoint(Rng& rng, std::uint32_t version) {
  SearchCheckpoint ckpt;
  ckpt.version = version;
  ckpt.num_edges = 4;
  ckpt.num_nodes = 2;
  ckpt.round = 17;
  ckpt.baseline = 0.42;
  ckpt.baseline_initialized = true;
  ckpt.theta.resize(64);
  for (float& v : ckpt.theta) v = rng.uniform(-1.0F, 1.0F);
  std::vector<float> alpha_flat(
      static_cast<std::size_t>(2 * ckpt.num_edges * kNumOps));
  for (float& v : alpha_flat) v = rng.uniform(-1.0F, 1.0F);
  ckpt.alpha = AlphaPair::unflatten(alpha_flat, ckpt.num_edges);
  if (version >= 2) {
    ckpt.runtime_state.resize(37);
    for (auto& b : ckpt.runtime_state) {
      b = static_cast<std::uint8_t>(rng.randint(0, 255));
    }
  }
  return ckpt;
}

TEST(CheckpointCorruption, RandomizedRoundTripPreservesEverything) {
  Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    const SearchCheckpoint ckpt = sample_checkpoint(rng, kCheckpointVersion);
    const SearchCheckpoint back =
        SearchCheckpoint::deserialize(ckpt.serialize());
    EXPECT_EQ(back.version, ckpt.version);
    EXPECT_EQ(back.num_edges, ckpt.num_edges);
    EXPECT_EQ(back.num_nodes, ckpt.num_nodes);
    EXPECT_EQ(back.round, ckpt.round);
    EXPECT_DOUBLE_EQ(back.baseline, ckpt.baseline);
    EXPECT_EQ(back.baseline_initialized, ckpt.baseline_initialized);
    EXPECT_EQ(back.theta, ckpt.theta);
    EXPECT_EQ(back.alpha.flatten(), ckpt.alpha.flatten());
    EXPECT_EQ(back.runtime_state, ckpt.runtime_state);
  }
}

TEST(CheckpointCorruption, Version1FilesStillLoad) {
  Rng rng(22);
  SearchCheckpoint v1 = sample_checkpoint(rng, 1);
  const SearchCheckpoint back = SearchCheckpoint::deserialize(v1.serialize());
  EXPECT_EQ(back.version, 1u);
  EXPECT_EQ(back.theta, v1.theta);
  EXPECT_TRUE(back.baseline_initialized);  // inferred from baseline != 0
  EXPECT_FALSE(back.has_runtime_state());
}

TEST(CheckpointCorruption, TruncatedFileRaisesCleanError) {
  Rng rng(23);
  const std::vector<std::uint8_t> good =
      sample_checkpoint(rng, kCheckpointVersion).serialize();
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{10},
                          good.size() / 2, good.size() - 1}) {
    const std::vector<std::uint8_t> bad(good.begin(),
                                        good.begin() + static_cast<long>(cut));
    EXPECT_THROW(SearchCheckpoint::deserialize(bad), CheckError)
        << "cut at " << cut;
  }
}

TEST(CheckpointCorruption, FlippedVersionFieldIsRejected) {
  Rng rng(24);
  std::vector<std::uint8_t> bytes =
      sample_checkpoint(rng, kCheckpointVersion).serialize();
  bytes[4] = 0xFF;  // version is the u32 right after the magic
  EXPECT_THROW(SearchCheckpoint::deserialize(bytes), CheckError);
  bytes[4] = 0;  // version 0 predates the format
  EXPECT_THROW(SearchCheckpoint::deserialize(bytes), CheckError);
}

TEST(CheckpointCorruption, WrongShapePayloadsAreRejected) {
  Rng rng(25);
  // Negative edge count.
  std::vector<std::uint8_t> bytes =
      sample_checkpoint(rng, kCheckpointVersion).serialize();
  for (int i = 0; i < 4; ++i) bytes[8 + static_cast<std::size_t>(i)] = 0xFF;
  EXPECT_THROW(SearchCheckpoint::deserialize(bytes), CheckError);

  // Alpha payload whose length disagrees with num_edges.
  SearchCheckpoint ckpt = sample_checkpoint(rng, kCheckpointVersion);
  ckpt.num_edges = 7;  // alpha still sized for 4 edges
  EXPECT_THROW(SearchCheckpoint::deserialize(ckpt.serialize()), CheckError);
}

TEST(CheckpointCorruption, GarbageRuntimeStateIsRejectedOnRestore) {
  Rng rng(26);
  TrainTest tt = tiny_data(rng);
  SearchConfig cfg = tiny_config();
  auto parts = iid_partition(tt.train.size(), cfg.schedule.num_participants,
                             rng);
  FederatedSearch search(cfg, tt.train, parts);
  search.run_warmup(2);
  SearchCheckpoint ckpt = search.checkpoint();
  ckpt.runtime_state.assign(64, 0xAB);  // bad magic
  EXPECT_THROW(search.restore(ckpt), CheckError);
  SearchCheckpoint truncated = search.checkpoint();
  truncated.runtime_state.resize(truncated.runtime_state.size() / 2);
  EXPECT_THROW(search.restore(truncated), CheckError);
}

// --- quorum commit ---

TEST(Quorum, TimeoutDropsEveryoneUnderHardSync) {
  Rng rng(31);
  TrainTest tt = tiny_data(rng);
  SearchConfig cfg = tiny_config();
  auto parts = iid_partition(tt.train.size(), cfg.schedule.num_participants,
                             rng);
  FederatedSearch search(cfg, tt.train, parts);
  SearchOptions opts;
  opts.quorum = 0.5;
  opts.round_timeout_s = 1e-9;  // nobody makes the deadline
  auto records = search.run_search(3, opts);
  for (const auto& r : records) {
    EXPECT_EQ(r.arrived, 0);
    EXPECT_EQ(r.late, cfg.schedule.num_participants);
    EXPECT_EQ(r.dropped, cfg.schedule.num_participants);
    EXPECT_TRUE(r.partial_quorum);
    EXPECT_DOUBLE_EQ(r.commit_latency_s, 1e-9);
  }
}

TEST(Quorum, LatecomersFoldIntoSoftSyncPath) {
  Rng rng(32);
  TrainTest tt = tiny_data(rng);
  SearchConfig cfg = tiny_config();
  cfg.schedule.num_participants = 6;
  auto parts = iid_partition(tt.train.size(), 6, rng);
  FederatedSearch search(cfg, tt.train, parts);
  SearchOptions opts;
  opts.stale_policy = StalePolicy::kCompensate;
  opts.staleness = StalenessDistribution::none();  // all fresh...
  opts.quorum = 0.5;  // ...except the slowest half each round
  auto records = search.run_search(12, opts);
  int late = 0, stale = 0, arrived = 0;
  for (const auto& r : records) {
    late += r.late;
    stale += r.stale_arrived;
    arrived += r.arrived;
    EXPECT_FALSE(r.partial_quorum);  // quorum met, just with stragglers
  }
  EXPECT_GT(late, 0);
  EXPECT_GT(stale, 0);   // folded-in latecomers arrive one round stale
  EXPECT_GT(arrived, 0);
  // Nothing was lost outright: updates are delayed, not discarded.
  EXPECT_EQ(search.fault_stats().injected_total(), 0u);
}

TEST(Quorum, FullQuorumNoTimeoutMatchesLegacyBehavior) {
  Rng rng(33);
  TrainTest tt = tiny_data(rng);
  SearchConfig cfg = tiny_config();
  auto parts = iid_partition(tt.train.size(), cfg.schedule.num_participants,
                             rng);
  auto run = [&](double quorum) {
    FederatedSearch search(cfg, tt.train, parts);
    SearchOptions opts;
    opts.quorum = quorum;
    auto recs = search.run_search(5, opts);
    return recs.back().mean_reward;
  };
  EXPECT_DOUBLE_EQ(run(1.0), run(1.0));
  for (const auto& r : [&] {
         FederatedSearch search(cfg, tt.train, parts);
         return search.run_search(5, SearchOptions{});
       }()) {
    EXPECT_EQ(r.late, 0);
    EXPECT_FALSE(r.partial_quorum);
  }
}

// --- quorum close rule: edge cases at the deadline boundary ---

TEST(QuorumCommit, TimeoutAtTheExactQuorumArrivalTickStillCommits) {
  // The q_need-th arrival lands exactly on the timeout: the commit rule
  // counts arrivals at or before the deadline, so the round is full.
  const QuorumOutcome at =
      quorum_commit({1.0, 2.0, 3.0, 4.0}, 0.5, 4, /*timeout_s=*/2.0);
  EXPECT_EQ(at.q_need, 2u);
  EXPECT_DOUBLE_EQ(at.deadline, 2.0);
  EXPECT_EQ(at.on_time, 2u);
  EXPECT_FALSE(at.partial);
  EXPECT_DOUBLE_EQ(at.commit_latency_s, 2.0);

  // A hair earlier and the second arrival misses: partial quorum.
  const QuorumOutcome early =
      quorum_commit({1.0, 2.0, 3.0, 4.0}, 0.5, 4, 2.0 - 1e-6);
  EXPECT_EQ(early.on_time, 1u);
  EXPECT_TRUE(early.partial);
}

TEST(QuorumCommit, FullQuorumWithZeroTimeoutWaitsForTheLastArrival) {
  // quorum = 1.0 with timeout 0 (disabled) reproduces classic full sync:
  // the round closes at the slowest client, nobody is late.
  const QuorumOutcome out =
      quorum_commit({3.0, 1.0, 2.0, 4.0}, 1.0, 4, /*timeout_s=*/0.0);
  EXPECT_EQ(out.q_need, 4u);
  EXPECT_DOUBLE_EQ(out.deadline, 4.0);
  EXPECT_EQ(out.on_time, 4u);
  EXPECT_FALSE(out.partial);
  EXPECT_DOUBLE_EQ(out.commit_latency_s, 4.0);
}

TEST(QuorumCommit, StarvedRoundsCloseAtTheTimeoutOrLastArrival) {
  // Nobody shows up: a positive timeout still bounds the round.
  const QuorumOutcome empty = quorum_commit({}, 0.5, 4, 1.5);
  EXPECT_EQ(empty.q_need, 2u);
  EXPECT_EQ(empty.on_time, 0u);
  EXPECT_TRUE(empty.partial);
  EXPECT_DOUBLE_EQ(empty.commit_latency_s, 1.5);

  // Fewer candidates than the quorum needs, no timeout: the round closes
  // at the last arrival and reports partial.
  const QuorumOutcome few = quorum_commit({2.5}, 0.75, 4, 0.0);
  EXPECT_EQ(few.q_need, 3u);
  EXPECT_EQ(few.on_time, 1u);
  EXPECT_TRUE(few.partial);
  EXPECT_DOUBLE_EQ(few.commit_latency_s, 2.5);
}

TEST(Quorum, PartialQuorumLateArrivalsFoldIntoDelayCompensation) {
  // A timeout tight enough that the quorum misses: rounds commit partial,
  // and the stragglers are not discarded — they fold into the soft-sync
  // path one round late and go through DC compensation.
  Rng rng(34);
  TrainTest tt = tiny_data(rng);
  SearchConfig cfg = tiny_config();
  cfg.schedule.num_participants = 6;
  auto parts = iid_partition(tt.train.size(), 6, rng);
  FederatedSearch search(cfg, tt.train, parts);
  SearchOptions opts;
  opts.stale_policy = StalePolicy::kCompensate;
  opts.staleness = StalenessDistribution::none();
  opts.quorum = 0.9;
  // Probe latencies once, then pick a timeout between the fastest and the
  // q_need-th arrival so every round commits partial with live stragglers.
  {
    FederatedSearch probe(cfg, tt.train, parts);
    SearchOptions unbounded = opts;
    const auto rec = probe.run_search(1, unbounded);
    opts.round_timeout_s = rec.front().mean_latency_s;
  }
  const auto records = search.run_search(10, opts);
  int partial = 0, late = 0, stale = 0, compensated = 0, arrived = 0;
  for (const auto& r : records) {
    partial += r.partial_quorum ? 1 : 0;
    late += r.late;
    stale += r.stale_arrived;
    compensated += r.compensated;
    arrived += r.arrived;
  }
  EXPECT_GT(partial, 0);
  EXPECT_GT(late, 0);
  EXPECT_GT(stale, 0);        // the late half arrives one round stale...
  EXPECT_GT(compensated, 0);  // ...and is delay-compensated, not dropped
  EXPECT_GT(arrived, 0);
  EXPECT_EQ(search.fault_stats().injected_total(), 0u);
}

// --- upload-link retransmit with seeded jitter ---

TEST(FaultInjector, UploadOutcomesAreDeterministicWithJitteredBackoff) {
  FaultPlan plan;
  plan.uplink_failure_p = 0.5;
  plan.backoff_jitter = 0.5;
  const FaultInjector a(plan, 16);
  const FaultInjector b(plan, 16);
  bool saw_recovered = false;
  bool saw_dead = false;
  for (int p = 0; p < 16; ++p) {
    for (int r = 0; r < 32; ++r) {
      const LinkOutcome oa = a.upload_outcome(p, r, 2, 0.5);
      const LinkOutcome ob = b.upload_outcome(p, r, 2, 0.5);
      EXPECT_EQ(oa.delivered, ob.delivered);
      EXPECT_EQ(oa.retransmits, ob.retransmits);
      EXPECT_DOUBLE_EQ(oa.extra_seconds, ob.extra_seconds);
      if (oa.delivered && oa.retransmits > 0) {
        saw_recovered = true;
        // Jitter stretches the backoff, never shrinks it: the n-th retry
        // pays at least backoff * 2^n.
        double base = 0.0, step = 0.5;
        for (int n = 0; n < oa.retransmits; ++n, step *= 2.0) base += step;
        EXPECT_GE(oa.extra_seconds, base);
        EXPECT_LE(oa.extra_seconds, base * (1.0 + plan.backoff_jitter));
      }
      if (!oa.delivered) saw_dead = true;
    }
  }
  EXPECT_TRUE(saw_recovered);
  EXPECT_TRUE(saw_dead);

  // The upload stream is independent of the download stream: same plan
  // probabilities, different schedules.
  FaultPlan both = plan;
  both.link_failure_p = 0.5;
  const FaultInjector c(both, 16);
  int differing = 0;
  for (int p = 0; p < 16; ++p) {
    for (int r = 0; r < 32; ++r) {
      if (c.upload_outcome(p, r, 2, 0.5).delivered !=
          c.link_outcome(p, r, 2, 0.5).delivered) {
        ++differing;
      }
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultInjector, UplinkPlanParsesAndRoundTrips) {
  const FaultPlan plan =
      FaultPlan::parse("uplink=0.3,backoff_jitter=0.25,seed=13");
  EXPECT_DOUBLE_EQ(plan.uplink_failure_p, 0.3);
  EXPECT_DOUBLE_EQ(plan.backoff_jitter, 0.25);
  EXPECT_FALSE(plan.empty());
  const FaultPlan again = FaultPlan::parse(plan.to_string());
  EXPECT_DOUBLE_EQ(again.uplink_failure_p, plan.uplink_failure_p);
  EXPECT_DOUBLE_EQ(again.backoff_jitter, plan.backoff_jitter);
  EXPECT_THROW(FaultPlan::parse("uplink=1.5"), CheckError);
  EXPECT_THROW(FaultPlan::parse("backoff_jitter=-0.1"), CheckError);
}

TEST(FaultCampaign, UplinkFaultsStayExactlyOnceInTheLedger) {
  Rng rng(43);
  TrainTest tt = tiny_data(rng);
  SearchConfig cfg = tiny_config();
  cfg.schedule.num_participants = 8;
  auto parts = iid_partition(tt.train.size(), 8, rng);
  FederatedSearch search(cfg, tt.train, parts);
  SearchOptions opts;
  opts.stale_policy = StalePolicy::kCompensate;
  opts.quorum = 0.5;
  opts.fault_plan = FaultPlan::parse("uplink=0.5,backoff_jitter=0.5,seed=14");
  const auto records = search.run_search(12, opts);
  const FaultStats& stats = search.fault_stats();
  EXPECT_GT(stats.injected_uplink, 0u);
  // Every uplink fault resolved exactly once: recovered by a retry or
  // dropped after the budget, never both, never neither.
  EXPECT_EQ(stats.injected_total(), stats.accounted());
  EXPECT_GT(stats.recovered, 0u);
  EXPECT_GT(stats.dropped, 0u);
  int retransmits = 0, dropped = 0;
  for (const auto& r : records) {
    retransmits += r.retransmits;
    dropped += r.dropped;
  }
  EXPECT_GT(retransmits, 0);
  EXPECT_GT(dropped, 0);
}

// --- the acceptance campaign: severe faults, search still converges ---

TEST(FaultCampaign, SevereCampaignCompletesAndStaysAccounted) {
  Rng rng(41);
  SynthSpec spec;
  spec.train_size = 400;
  spec.test_size = 40;
  spec.image_size = 8;
  spec.noise_std = 0.05F;
  TrainTest tt = make_synth_c10(spec, rng);
  SearchConfig cfg = tiny_config();
  cfg.schedule.num_participants = 10;
  cfg.schedule.batch_size = 16;
  auto parts = iid_partition(tt.train.size(), 10, rng);

  auto run = [&](const FaultPlan& plan) {
    FederatedSearch search(cfg, tt.train, parts);
    search.run_warmup(8);
    SearchOptions opts;
    opts.stale_policy = StalePolicy::kCompensate;
    opts.staleness = StalenessDistribution::slight();
    opts.fault_plan = plan;
    opts.quorum = 0.7;
    auto records = search.run_search(60, opts);
    // The search must end with finite, usable parameters.
    for (float v : search.supernet().flat_values()) {
      EXPECT_TRUE(std::isfinite(v));
    }
    for (float v : search.policy().alpha().flatten()) {
      EXPECT_TRUE(std::isfinite(v));
    }
    EXPECT_TRUE(std::isfinite(search.policy().baseline()));
    struct Result {
      double final_moving_avg;
      FaultStats stats;
    };
    return Result{records.back().moving_avg, search.fault_stats()};
  };

  const auto clean = run(FaultPlan{});
  EXPECT_EQ(clean.stats.injected_total(), 0u);

  // 30% crashed fleet + corrupted payloads + NaN/exploding clients.
  FaultPlan severe = FaultPlan::severe(/*seed=*/5);
  const auto faulty = run(severe);
  EXPECT_GT(faulty.stats.injected_crash, 0u);
  EXPECT_GT(faulty.stats.injected_corrupt, 0u);
  EXPECT_GT(faulty.stats.injected_divergent, 0u);
  EXPECT_GT(faulty.stats.rejected, 0u);  // screening earned its keep
  // Every injected fault resolved exactly once.
  EXPECT_EQ(faulty.stats.injected_total(), faulty.stats.accounted());
  // Defenses hold the search trajectory: final moving-average reward
  // within 5% of the fault-free run.
  EXPECT_GT(clean.final_moving_avg, 0.0);
  EXPECT_LE(std::abs(faulty.final_moving_avg - clean.final_moving_avg),
            0.05 * clean.final_moving_avg)
      << "clean " << clean.final_moving_avg << " vs faulty "
      << faulty.final_moving_avg;
}

TEST(FaultCampaign, ScreeningShieldsBaselineFromDivergentClients) {
  Rng rng(42);
  TrainTest tt = tiny_data(rng);
  SearchConfig cfg = tiny_config();
  auto parts = iid_partition(tt.train.size(), cfg.schedule.num_participants,
                             rng);
  FaultPlan plan;
  plan.divergent_fraction = 0.5;
  plan.divergent_p = 1.0;

  // With screening the baseline stays a valid reward average.
  FederatedSearch screened(cfg, tt.train, parts);
  SearchOptions opts;
  opts.fault_plan = plan;
  auto records = screened.run_search(8, opts);
  EXPECT_GE(screened.policy().baseline(), 0.0);
  EXPECT_LE(screened.policy().baseline(), 1.0);
  int rejected = 0;
  for (const auto& r : records) rejected += r.rejected;
  EXPECT_GT(rejected, 0);
  for (float v : screened.supernet().flat_values()) {
    ASSERT_TRUE(std::isfinite(v));
  }

  // Without screening the poison reaches the baseline — the defense is
  // doing real work, not shadowing an impossible input.
  FederatedSearch unscreened(cfg, tt.train, parts);
  SearchOptions off = opts;
  off.screen_updates = false;
  unscreened.run_search(8, off);
  EXPECT_FALSE(unscreened.policy().baseline() >= 0.0 &&
               unscreened.policy().baseline() <= 1.0);
}

// --- kill-and-resume determinism ---

std::vector<RoundRecord> run_rounds(FederatedSearch& search, int n,
                                    const SearchOptions& opts) {
  return search.run_search(n, opts);
}

void expect_identical(const RoundRecord& a, const RoundRecord& b) {
  EXPECT_EQ(a.round, b.round);
  EXPECT_DOUBLE_EQ(a.mean_reward, b.mean_reward);
  EXPECT_DOUBLE_EQ(a.moving_avg, b.moving_avg);
  EXPECT_EQ(a.arrived, b.arrived);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_DOUBLE_EQ(a.max_latency_s, b.max_latency_s);
  EXPECT_DOUBLE_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_EQ(a.bytes_down, b.bytes_down);
  EXPECT_EQ(a.bytes_up, b.bytes_up);
  EXPECT_EQ(a.stale_arrived, b.stale_arrived);
  EXPECT_EQ(a.compensated, b.compensated);
  EXPECT_DOUBLE_EQ(a.mean_tau, b.mean_tau);
  EXPECT_EQ(a.max_tau, b.max_tau);
  EXPECT_DOUBLE_EQ(a.alpha_entropy, b.alpha_entropy);
  EXPECT_DOUBLE_EQ(a.baseline, b.baseline);
  EXPECT_EQ(a.offline, b.offline);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.late, b.late);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.partial_quorum, b.partial_quorum);
  EXPECT_DOUBLE_EQ(a.commit_latency_s, b.commit_latency_s);
}

TEST(CrashRecovery, KillAndResumeReproducesTheRoundStream) {
  Rng rng(51);
  TrainTest tt = tiny_data(rng);
  SearchConfig cfg = tiny_config();
  auto parts = iid_partition(tt.train.size(), cfg.schedule.num_participants,
                             rng);
  SearchOptions opts;
  opts.stale_policy = StalePolicy::kCompensate;
  opts.staleness = StalenessDistribution::severe();
  opts.fault_plan = FaultPlan::parse("corrupt=0.1,divergent=0.2,link=0.1");
  opts.quorum = 0.75;

  // Uninterrupted reference run.
  FederatedSearch reference(cfg, tt.train, parts);
  reference.run_warmup(3);
  const auto full = run_rounds(reference, 12, opts);

  // Interrupted run: checkpoint mid-stream, destroy, resume in a fresh
  // instance, continue. The checkpoint travels through real bytes.
  std::vector<std::uint8_t> frozen;
  {
    FederatedSearch first(cfg, tt.train, parts);
    first.run_warmup(3);
    const auto head = run_rounds(first, 5, opts);
    for (std::size_t i = 0; i < head.size(); ++i) {
      SCOPED_TRACE("head round " + std::to_string(i));
      expect_identical(full[i], head[i]);
    }
    frozen = first.checkpoint().serialize();
  }  // `first` is destroyed here — the crash
  FederatedSearch resumed(cfg, tt.train, parts);
  resumed.restore(SearchCheckpoint::deserialize(frozen));
  const auto tail = run_rounds(resumed, 7, opts);
  ASSERT_EQ(tail.size(), 7u);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    SCOPED_TRACE("tail round " + std::to_string(i));
    expect_identical(full[5 + i], tail[i]);
  }
  // Terminal state matches bit for bit, not just the records.
  EXPECT_EQ(reference.supernet().flat_values(),
            resumed.supernet().flat_values());
  EXPECT_EQ(reference.policy().alpha().flatten(),
            resumed.policy().alpha().flatten());
  EXPECT_EQ(reference.fault_stats().injected_total(),
            resumed.fault_stats().injected_total());
  EXPECT_EQ(reference.fault_stats().accounted(),
            resumed.fault_stats().accounted());
  EXPECT_EQ(reference.total_bytes_down(), resumed.total_bytes_down());
  EXPECT_EQ(reference.total_bytes_up(), resumed.total_bytes_up());
}

TEST(CrashRecovery, AutoCheckpointWritesAtTheConfiguredCadence) {
  Rng rng(52);
  TrainTest tt = tiny_data(rng);
  SearchConfig cfg = tiny_config();
  auto parts = iid_partition(tt.train.size(), cfg.schedule.num_participants,
                             rng);
  const std::string path = ::testing::TempDir() + "/fms_auto.ckpt";

  FederatedSearch search(cfg, tt.train, parts);
  SearchOptions opts;
  opts.checkpoint_every = 3;
  opts.checkpoint_path = path;
  search.run_search(7, opts);
  // Rounds 0..6 ran; the last write happened after round 5 (counter 6).
  const SearchCheckpoint ckpt = read_checkpoint_file(path);
  EXPECT_EQ(ckpt.round, 6);
  EXPECT_TRUE(ckpt.has_runtime_state());

  FederatedSearch resumed(cfg, tt.train, parts);
  resumed.restore(ckpt);
  const auto more = resumed.run_search(1, opts);
  EXPECT_EQ(more.front().round, 6);
}

}  // namespace
}  // namespace fms
