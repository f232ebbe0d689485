// Byzantine-robustness surface: the src/agg estimators (exact values,
// permutation invariance, planted-outlier selection, breakdown bounds),
// the robust scalar statistics behind adaptive screening and reward
// winsorization, the Byzantine adversary schedule in the fault injector,
// and attack-vs-defense integration through the full search loop.
// Selected with `ctest -L agg`.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "src/agg/aggregator.h"
#include "src/common/check.h"
#include "src/core/checkpoint.h"
#include "src/core/search.h"
#include "src/data/synth.h"
#include "src/fault/fault.h"
#include "src/sim/staleness.h"

namespace fms {
namespace {

using agg::AggregationOutcome;
using agg::AggregatorConfig;
using agg::AggregatorKind;

AggregatorConfig make_cfg(AggregatorKind kind, int f = 1) {
  AggregatorConfig cfg;
  cfg.kind = kind;
  cfg.f = f;
  return cfg;
}

// --- estimator unit tests ---

TEST(Aggregators, MeanMatchesPlainAverage) {
  const std::vector<std::vector<float>> updates = {
      {1.0F, 2.0F, -3.0F}, {3.0F, 0.0F, 1.0F}, {-1.0F, 4.0F, 5.0F}};
  const AggregationOutcome out =
      agg::aggregate(make_cfg(AggregatorKind::kMean), updates);
  ASSERT_EQ(out.grad.size(), 3u);
  EXPECT_FLOAT_EQ(out.grad[0], 1.0F);
  EXPECT_FLOAT_EQ(out.grad[1], 2.0F);
  EXPECT_FLOAT_EQ(out.grad[2], 1.0F);
  EXPECT_EQ(out.clipped_updates, 0);
  EXPECT_EQ(out.trimmed_values, 0);
  EXPECT_EQ(out.rejected_updates, 0);
}

TEST(Aggregators, CoordinateMedianExactValues) {
  // Odd count: per-coordinate middle value. One poisoned update cannot
  // move the median past a benign value.
  const std::vector<std::vector<float>> odd = {
      {1.0F, -5.0F}, {2.0F, 0.0F}, {900.0F, 5.0F}};
  const AggregationOutcome med =
      agg::aggregate(make_cfg(AggregatorKind::kCoordinateMedian), odd);
  EXPECT_FLOAT_EQ(med.grad[0], 2.0F);
  EXPECT_FLOAT_EQ(med.grad[1], 0.0F);

  // Even count: average of the two middle values.
  const std::vector<std::vector<float>> even = {
      {1.0F}, {2.0F}, {4.0F}, {100.0F}};
  const AggregationOutcome med2 =
      agg::aggregate(make_cfg(AggregatorKind::kCoordinateMedian), even);
  EXPECT_FLOAT_EQ(med2.grad[0], 3.0F);
}

TEST(Aggregators, TrimmedMeanExactValues) {
  // f=1 over five updates: drop min and max per coordinate, average the
  // middle three.
  const std::vector<std::vector<float>> updates = {
      {1.0F, 10.0F}, {2.0F, 20.0F}, {3.0F, 30.0F},
      {4.0F, 40.0F}, {-99.0F, 999.0F}};
  const AggregationOutcome out = agg::aggregate(
      make_cfg(AggregatorKind::kTrimmedMean, /*f=*/1), updates);
  EXPECT_FLOAT_EQ(out.grad[0], 2.0F);   // (1+2+3)/3
  EXPECT_FLOAT_EQ(out.grad[1], 30.0F);  // (20+30+40)/3
  EXPECT_EQ(out.trimmed_values, 4);     // 2 coordinates * 2 tails
}

TEST(Aggregators, TrimmedMeanClampsFToWhatArrivalsSupport) {
  // f=5 over three updates must degrade to f=1 (keep at least one value
  // per coordinate), not throw or trim everything.
  const std::vector<std::vector<float>> updates = {{1.0F}, {2.0F}, {30.0F}};
  const AggregationOutcome out = agg::aggregate(
      make_cfg(AggregatorKind::kTrimmedMean, /*f=*/5), updates);
  EXPECT_FLOAT_EQ(out.grad[0], 2.0F);
}

TEST(Aggregators, ClippedMeanBoundsOutlierInfluence) {
  AggregatorConfig cfg = make_cfg(AggregatorKind::kClippedMean);
  cfg.clip_multiplier = 2.0F;
  // Three unit-norm benign updates and one norm-1000 outlier: the bound is
  // median(norms) * 2 = 2, so the outlier is rescaled to norm 2.
  const std::vector<std::vector<float>> updates = {
      {1.0F, 0.0F}, {0.0F, 1.0F}, {-1.0F, 0.0F}, {1000.0F, 0.0F}};
  const AggregationOutcome out = agg::aggregate(cfg, updates);
  EXPECT_EQ(out.clipped_updates, 1);
  EXPECT_NEAR(out.clipped_mass, 998.0, 1e-3);
  EXPECT_NEAR(out.grad[0], (1.0 - 1.0 + 2.0) / 4.0, 1e-5);
  EXPECT_NEAR(out.grad[1], 0.25, 1e-5);
}

TEST(Aggregators, KrumRejectsPlantedOutlier) {
  // Five clustered updates plus one far outlier. Krum must select a
  // cluster member; multi-krum must average only cluster members.
  std::vector<std::vector<float>> updates = {
      {1.00F, 1.00F}, {1.01F, 0.99F}, {0.99F, 1.02F},
      {1.02F, 1.01F}, {0.98F, 0.98F}, {500.0F, -500.0F}};
  const AggregationOutcome krum =
      agg::aggregate(make_cfg(AggregatorKind::kKrum, /*f=*/1), updates);
  ASSERT_EQ(krum.selected.size(), 1u);
  EXPECT_NE(krum.selected[0], 5);  // never the outlier
  EXPECT_LT(std::abs(krum.grad[0] - 1.0F), 0.1F);
  EXPECT_EQ(krum.rejected_updates, 5);

  const AggregationOutcome multi =
      agg::aggregate(make_cfg(AggregatorKind::kMultiKrum, /*f=*/1), updates);
  EXPECT_EQ(multi.selected.size(), 5u);  // n - f survivors
  EXPECT_EQ(multi.rejected_updates, 1);
  EXPECT_EQ(std::count(multi.selected.begin(), multi.selected.end(), 5), 0);
  EXPECT_LT(std::abs(multi.grad[0] - 1.0F), 0.1F);
  EXPECT_LT(std::abs(multi.grad[1] - 1.0F), 0.1F);
}

TEST(Aggregators, RobustEstimatorsArePermutationInvariant) {
  const std::vector<std::vector<float>> updates = {
      {1.0F, -2.0F}, {0.5F, 3.0F}, {2.5F, 0.0F}, {-1.0F, 1.0F},
      {40.0F, -40.0F}};
  std::vector<std::vector<float>> shuffled = {updates[3], updates[0],
                                              updates[4], updates[2],
                                              updates[1]};
  for (AggregatorKind kind :
       {AggregatorKind::kCoordinateMedian, AggregatorKind::kTrimmedMean,
        AggregatorKind::kKrum, AggregatorKind::kMultiKrum,
        AggregatorKind::kClippedMean}) {
    const AggregationOutcome a = agg::aggregate(make_cfg(kind, 1), updates);
    const AggregationOutcome b = agg::aggregate(make_cfg(kind, 1), shuffled);
    ASSERT_EQ(a.grad.size(), b.grad.size());
    for (std::size_t i = 0; i < a.grad.size(); ++i) {
      EXPECT_FLOAT_EQ(a.grad[i], b.grad[i])
          << agg::aggregator_name(kind) << " coordinate " << i;
    }
  }
}

TEST(Aggregators, ParticipationAwareEstimationOverMaskedUpdates) {
  // Three updates, but coordinate 1 is carried by update 0 alone and
  // coordinate 2 by updates 0 and 1 (zeros elsewhere are unsampled ops,
  // not votes). The robust estimators must compute their statistic over
  // the carriers only and rescale by n_j/m — without the presence masks
  // the zeros of the non-carriers would dominate the order statistics
  // and the committed gradient for coordinate 1 would be 0.
  const std::vector<std::vector<float>> updates = {
      {1.0F, 6.0F, 2.0F}, {2.0F, 0.0F, 4.0F}, {3.0F, 0.0F, 0.0F}};
  const std::vector<std::vector<std::uint8_t>> presence = {
      {1, 1, 1}, {1, 0, 1}, {1, 0, 0}};

  const AggregationOutcome med = agg::aggregate(
      make_cfg(AggregatorKind::kCoordinateMedian), updates, presence);
  EXPECT_FLOAT_EQ(med.grad[0], 2.0F);              // median{1,2,3} * 3/3
  EXPECT_FLOAT_EQ(med.grad[1], 2.0F);              // 6 * 1/3
  EXPECT_FLOAT_EQ(med.grad[2], 2.0F);              // median{2,4} * 2/3

  const AggregationOutcome trimmed = agg::aggregate(
      make_cfg(AggregatorKind::kTrimmedMean, /*f=*/1), updates, presence);
  EXPECT_FLOAT_EQ(trimmed.grad[0], 2.0F);          // trim {1,3}, keep 2
  EXPECT_FLOAT_EQ(trimmed.grad[1], 2.0F);          // 1 carrier: no trim
  EXPECT_FLOAT_EQ(trimmed.grad[2], 2.0F);          // 2 carriers: no trim
  EXPECT_EQ(trimmed.trimmed_values, 2);            // only coordinate 0

  // Mean-equivalence sanity: with the mean estimator the presence masks
  // are an algebraic no-op (absent coordinates are exact zeros).
  const AggregationOutcome mean =
      agg::aggregate(make_cfg(AggregatorKind::kMean), updates, presence);
  EXPECT_FLOAT_EQ(mean.grad[1], 2.0F);             // 6/3
}

TEST(Aggregators, BreakdownUnderFOfNAttackers) {
  // 7 benign updates near +1 and f=3 attackers at -1000. The mean is
  // dragged far negative; trimmed_mean(3) and coordinate_median stay in
  // the benign range. This is the estimator-level statement of the
  // attack-vs-defense ablation.
  std::vector<std::vector<float>> updates;
  for (int i = 0; i < 7; ++i) {
    updates.push_back({1.0F + 0.01F * static_cast<float>(i)});
  }
  for (int i = 0; i < 3; ++i) updates.push_back({-1000.0F});

  const double mean =
      agg::aggregate(make_cfg(AggregatorKind::kMean), updates).grad[0];
  const double trimmed =
      agg::aggregate(make_cfg(AggregatorKind::kTrimmedMean, 3), updates)
          .grad[0];
  const double median =
      agg::aggregate(make_cfg(AggregatorKind::kCoordinateMedian), updates)
          .grad[0];
  EXPECT_LT(mean, -200.0);
  EXPECT_GT(trimmed, 0.9);
  EXPECT_LT(trimmed, 1.1);
  EXPECT_GT(median, 0.9);
  EXPECT_LT(median, 1.1);
}

TEST(Aggregators, ConfigParseRoundTrips) {
  EXPECT_EQ(AggregatorConfig::parse("mean").kind, AggregatorKind::kMean);
  const AggregatorConfig trimmed = AggregatorConfig::parse("trimmed_mean:2");
  EXPECT_EQ(trimmed.kind, AggregatorKind::kTrimmedMean);
  EXPECT_EQ(trimmed.f, 2);
  EXPECT_EQ(trimmed.to_string(), "trimmed_mean:2");
  const AggregatorConfig clipped = AggregatorConfig::parse("clipped_mean:2.5");
  EXPECT_EQ(clipped.kind, AggregatorKind::kClippedMean);
  EXPECT_FLOAT_EQ(clipped.clip_multiplier, 2.5F);
  EXPECT_EQ(AggregatorConfig::parse("krum:3").f, 3);
  EXPECT_EQ(AggregatorConfig::parse("multi_krum").kind,
            AggregatorKind::kMultiKrum);
  EXPECT_THROW(AggregatorConfig::parse("geometric_median"), CheckError);
  EXPECT_THROW(AggregatorConfig::parse("trimmed_mean:x"), CheckError);
  EXPECT_THROW(AggregatorConfig::parse("mean:2"), CheckError);
  // The suffix is an integer literal in int's range, or a finite float.
  EXPECT_THROW(AggregatorConfig::parse("trimmed_mean:4294967297"),
               CheckError);
  EXPECT_THROW(AggregatorConfig::parse("krum:1.5"), CheckError);
  EXPECT_THROW(AggregatorConfig::parse("clipped_mean:1e39"), CheckError);
}

// --- robust scalar statistics ---

TEST(RobustStats, MedianAndMad) {
  EXPECT_DOUBLE_EQ(agg::median_of({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(agg::median_of({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(agg::median_of({}), 0.0);
  EXPECT_DOUBLE_EQ(agg::mad_of({1.0, 2.0, 3.0, 100.0}, 2.5), 1.0);
}

TEST(RobustStats, AdaptiveNormBoundTightensButNeverExceedsCap) {
  // 8 benign norms near 5 and one at 5000: median + 6*MAD lands far below
  // the fixed 1e4 cap, so the poisoned norm is now screenable.
  std::vector<double> norms = {4.8, 5.0, 5.1, 4.9, 5.2, 5.0, 4.7, 5.3, 5000.0};
  const double bound = agg::adaptive_norm_bound(norms, 6.0, 4, 1e4);
  EXPECT_LT(bound, 100.0);
  EXPECT_GT(bound, 5.0);
  // Below the min-arrival guard the fixed cap applies unchanged.
  EXPECT_DOUBLE_EQ(agg::adaptive_norm_bound({5.0, 5.1}, 6.0, 4, 1e4), 1e4);
  // The adaptive bound can only tighten the cap, never loosen it.
  EXPECT_DOUBLE_EQ(
      agg::adaptive_norm_bound({1e6, 2e6, 3e6, 4e6, 5e6}, 6.0, 4, 1e4), 1e4);
}

TEST(RobustStats, WinsorBoundsTukeyFence) {
  // Rewards 0.1..0.4 with one inflated 1.0: the 1.5*IQR fence excludes
  // the outlier but keeps every benign value.
  const agg::WinsorBounds wb =
      agg::winsor_bounds({0.1, 0.2, 0.3, 0.4, 1.0}, 1.5);
  EXPECT_LT(wb.lo, 0.1);
  EXPECT_LT(wb.hi, 1.0);
  EXPECT_GT(wb.hi, 0.4);
  // Tiny rounds clamp nothing: the band spans the observed values.
  const agg::WinsorBounds small = agg::winsor_bounds({0.2, 0.9}, 1.5);
  EXPECT_LE(small.lo, 0.2);
  EXPECT_GE(small.hi, 0.9);
}

// --- Byzantine adversary schedule ---

TEST(ByzantineInjector, AttacksAreCraftedToPassScreening) {
  FaultPlan plan;
  plan.sign_flip_fraction = 1.0;
  plan.sign_flip_lambda = 10.0;
  plan.grad_scale_lambda = 10.0;
  plan.reward_attack_delta = 0.5;
  const FaultInjector inj(plan, 4);

  UpdateMsg upd;
  upd.round = 3;
  upd.participant = 1;
  upd.reward = 0.4F;
  upd.loss = 1.7F;
  upd.grads = {0.1F, -0.2F, 0.05F};

  UpdateMsg flipped = upd;
  inj.attack(flipped, FaultKind::kSignFlip, 1, 3);
  EXPECT_FLOAT_EQ(flipped.grads[0], -1.0F);
  EXPECT_FLOAT_EQ(flipped.grads[1], 2.0F);
  EXPECT_EQ(screen_update(flipped, 1e4F), nullptr);

  UpdateMsg scaled = upd;
  inj.attack(scaled, FaultKind::kGradScale, 1, 3);
  EXPECT_FLOAT_EQ(scaled.grads[2], 0.5F);
  EXPECT_EQ(screen_update(scaled, 1e4F), nullptr);

  UpdateMsg lied = upd;
  inj.attack(lied, FaultKind::kRewardAttack, 1, 3);
  EXPECT_FLOAT_EQ(lied.reward, 0.9F);
  EXPECT_EQ(screen_update(lied, 1e4F), nullptr);

  // Colluders in the same round submit identical gradients; across rounds
  // the clone direction changes.
  UpdateMsg c1 = upd;
  UpdateMsg c2 = upd;
  c2.participant = 2;
  inj.attack(c1, FaultKind::kCollude, 1, 3);
  inj.attack(c2, FaultKind::kCollude, 2, 3);
  EXPECT_EQ(c1.grads, c2.grads);
  EXPECT_EQ(screen_update(c1, 1e4F), nullptr);
  UpdateMsg c3 = upd;
  inj.attack(c3, FaultKind::kCollude, 1, 4);
  EXPECT_NE(c1.grads, c3.grads);
}

TEST(ByzantineInjector, SelectionIsPersistentFractionalAndPrecedenced) {
  FaultPlan plan;
  plan.sign_flip_fraction = 0.3;
  const FaultInjector inj(plan, 100);
  int selected = 0;
  for (int p = 0; p < 100; ++p) {
    const auto kind = inj.byzantine_kind(p, 0);
    if (kind.has_value()) {
      ++selected;
      EXPECT_TRUE(*kind == FaultKind::kSignFlip);
      // Persistent: the same client attacks every round.
      for (int r = 1; r < 10; ++r) {
        const auto again = inj.byzantine_kind(p, r);
        ASSERT_TRUE(again.has_value());
        EXPECT_TRUE(*again == FaultKind::kSignFlip);
      }
    }
  }
  EXPECT_GT(selected, 15);
  EXPECT_LT(selected, 45);

  // Precedence: a client selected by every family runs sign-flip.
  FaultPlan all;
  all.sign_flip_fraction = 1.0;
  all.grad_scale_fraction = 1.0;
  all.collude_fraction = 1.0;
  all.reward_attack_fraction = 1.0;
  const FaultInjector overlap(all, 10);
  for (int p = 0; p < 10; ++p) {
    const auto kind = overlap.byzantine_kind(p, 0);
    ASSERT_TRUE(kind.has_value());
    EXPECT_TRUE(*kind == FaultKind::kSignFlip);
  }
}

TEST(ByzantineInjector, PlanGrammarRoundTrips) {
  const FaultPlan plan = FaultPlan::parse(
      "sign_flip=0.3,sign_flip_lambda=10,grad_scale=0.1,"
      "grad_scale_lambda=5,collude=0.2,collude_scale=2,"
      "reward_attack=0.25,reward_attack_delta=-0.4,seed=9");
  EXPECT_DOUBLE_EQ(plan.sign_flip_fraction, 0.3);
  EXPECT_DOUBLE_EQ(plan.sign_flip_lambda, 10.0);
  EXPECT_DOUBLE_EQ(plan.grad_scale_fraction, 0.1);
  EXPECT_DOUBLE_EQ(plan.collude_fraction, 0.2);
  EXPECT_DOUBLE_EQ(plan.reward_attack_delta, -0.4);
  EXPECT_TRUE(plan.has_byzantine());
  EXPECT_FALSE(plan.empty());
  // to_string() -> parse() is the identity on the Byzantine keys.
  const FaultPlan again = FaultPlan::parse(plan.to_string());
  EXPECT_DOUBLE_EQ(again.sign_flip_fraction, plan.sign_flip_fraction);
  EXPECT_DOUBLE_EQ(again.reward_attack_delta, plan.reward_attack_delta);
  EXPECT_THROW(FaultPlan::parse("sign_flip_lambda=0"), CheckError);
  EXPECT_THROW(FaultPlan::parse("reward_attack_delta=2"), CheckError);
}

// --- integration through the search loop ---

SearchConfig agg_config(int participants) {
  SearchConfig cfg;
  cfg.supernet.num_cells = 3;
  cfg.supernet.num_nodes = 2;
  cfg.supernet.stem_channels = 4;
  cfg.supernet.image_size = 8;
  cfg.schedule.batch_size = 16;
  cfg.schedule.num_participants = participants;
  cfg.seed = 7;
  return cfg;
}

struct RunResult {
  std::vector<RoundRecord> records;
  double final_moving_avg = 0.0;
  FaultStats faults;
  RobustStats robust;
  std::vector<float> theta;
};

RunResult run_campaign(const SearchConfig& cfg, const TrainTest& tt,
                       const std::vector<std::vector<int>>& parts, int warmup,
                       int rounds, const SearchOptions& opts) {
  FederatedSearch search(cfg, tt.train, parts);
  search.run_warmup(warmup);
  RunResult out;
  out.records = search.run_search(rounds, opts);
  out.final_moving_avg = out.records.back().moving_avg;
  out.faults = search.fault_stats();
  out.robust = search.robust_stats();
  out.theta = search.supernet().flat_values();
  for (float v : out.theta) EXPECT_TRUE(std::isfinite(v));
  return out;
}

// The acceptance bar of the ablation: with 3/10 sign-flip attackers at
// lambda=10, the defense bundle (adaptive screen + trimmed mean) tracks
// the attack-free trajectory within 5% while the plain mean measurably
// degrades.
TEST(AggIntegration, TrimmedMeanWithstandsSignFlipWhereMeanDegrades) {
  Rng rng(41);
  SynthSpec spec;
  spec.train_size = 400;
  spec.test_size = 40;
  spec.image_size = 8;
  spec.noise_std = 0.05F;
  TrainTest tt = make_synth_c10(spec, rng);
  SearchConfig cfg = agg_config(10);
  auto parts = iid_partition(tt.train.size(), 10, rng);

  SearchOptions clean;
  const RunResult baseline = run_campaign(cfg, tt, parts, 8, 60, clean);
  EXPECT_GT(baseline.final_moving_avg, 0.0);

  // seed=2 selects exactly 3 of the 10 participants for sign-flip (the
  // selection is a persistent per-participant draw, so small fleets need
  // a seed that actually realizes the nominal 30% fraction).
  SearchOptions attacked = clean;
  attacked.fault_plan =
      FaultPlan::parse("sign_flip=0.3,sign_flip_lambda=10,seed=2");
  const RunResult undefended = run_campaign(cfg, tt, parts, 8, 60, attacked);
  EXPECT_GT(undefended.faults.injected_sign_flip, 0u);
  // Every attacked update resolved exactly once in the ledger.
  EXPECT_EQ(undefended.faults.injected_total(),
            undefended.faults.accounted());

  // The layered defense of DESIGN.md: adaptive screening rejects the
  // norm-visible bulk of the attack wholesale (a lambda=10 flip sits ~10x
  // above the round's median norm), and the trimmed mean bounds whatever
  // influence per-coordinate remains. The estimator alone cannot meet the
  // 5% bar here: an op carried by <= 2 arrivals has nothing to trim
  // against, so an amplified flip on a rarely-sampled op leaks straight
  // into theta.
  SearchOptions defended = attacked;
  defended.aggregator = AggregatorConfig::parse("trimmed_mean:3");
  defended.adaptive_screen = true;
  const RunResult robust = run_campaign(cfg, tt, parts, 8, 60, defended);
  EXPECT_EQ(robust.faults.injected_total(), robust.faults.accounted());
  EXPECT_GT(robust.robust.trimmed_values, 0u);
  // The screen did real work: attacked updates died at the gate.
  EXPECT_GT(robust.faults.rejected, 0u);

  // Defense holds: within 5% of the attack-free final moving average.
  EXPECT_LE(std::abs(robust.final_moving_avg - baseline.final_moving_avg),
            0.05 * baseline.final_moving_avg)
      << "clean " << baseline.final_moving_avg << " vs trimmed "
      << robust.final_moving_avg;
  // The undefended mean measurably degrades under the same attack, and
  // the robust run beats it.
  EXPECT_LT(undefended.final_moving_avg, 0.95 * baseline.final_moving_avg)
      << "clean " << baseline.final_moving_avg << " vs undefended "
      << undefended.final_moving_avg;
  EXPECT_GT(robust.final_moving_avg, undefended.final_moving_avg);
}

TEST(AggIntegration, MultiKrumWithstandsScaleAttack) {
  Rng rng(43);
  SynthSpec spec;
  spec.train_size = 400;
  spec.test_size = 40;
  spec.image_size = 8;
  spec.noise_std = 0.05F;
  TrainTest tt = make_synth_c10(spec, rng);
  SearchConfig cfg = agg_config(10);
  auto parts = iid_partition(tt.train.size(), 10, rng);

  SearchOptions clean;
  const RunResult baseline = run_campaign(cfg, tt, parts, 8, 60, clean);

  // seed=36 realizes 3/10 grad-scale attackers under the persistent draw.
  SearchOptions attacked = clean;
  attacked.fault_plan =
      FaultPlan::parse("grad_scale=0.3,grad_scale_lambda=10,seed=36");
  attacked.aggregator = AggregatorConfig::parse("multi_krum:3");
  const RunResult robust = run_campaign(cfg, tt, parts, 8, 60, attacked);
  EXPECT_GT(robust.faults.injected_grad_scale, 0u);
  EXPECT_GT(robust.robust.rejected_updates, 0u);
  EXPECT_EQ(robust.faults.injected_total(), robust.faults.accounted());
  EXPECT_LE(std::abs(robust.final_moving_avg - baseline.final_moving_avg),
            0.05 * baseline.final_moving_avg)
      << "clean " << baseline.final_moving_avg << " vs multi_krum "
      << robust.final_moving_avg;
}

TEST(AggIntegration, WinsorizationBoundsRewardInflation) {
  Rng rng(44);
  SynthSpec spec;
  spec.train_size = 200;
  spec.test_size = 40;
  spec.image_size = 8;
  TrainTest tt = make_synth_c10(spec, rng);
  SearchConfig cfg = agg_config(10);
  auto parts = iid_partition(tt.train.size(), 10, rng);

  // 2 of 10 clients report accuracy +0.5 — in [0, 1], invisible to
  // screening by construction (seed=12 realizes exactly 2 under the
  // persistent draw). The contamination is deliberately kept under the
  // Tukey fence's breakdown point: the upper quartile tolerates at most
  // 25% of the samples lying above it, so 3+ attackers of 10 would drag
  // Q3 into the attacked block and the fence would clamp nothing.
  SearchOptions attacked;
  attacked.fault_plan =
      FaultPlan::parse("reward_attack=0.2,reward_attack_delta=0.5,seed=12");
  const RunResult inflated = run_campaign(cfg, tt, parts, 2, 12, attacked);
  EXPECT_GT(inflated.faults.injected_reward, 0u);

  SearchOptions defended = attacked;
  defended.winsorize_rewards_k = 1.5;
  defended.baseline_mode = BaselineMode::kMedianReward;
  const RunResult winsorized = run_campaign(cfg, tt, parts, 2, 12, defended);
  EXPECT_GT(winsorized.robust.winsorized_rewards, 0u);
  // The defended reward curve sits below the inflated one: the lie was
  // clamped out of the committed statistic.
  EXPECT_LT(winsorized.final_moving_avg, inflated.final_moving_avg);
  EXPECT_EQ(winsorized.faults.injected_total(),
            winsorized.faults.accounted());
}

// A Byzantine-only plan perturbs gradients/rewards but must leave the
// transport simulation (latencies, bytes, offline/dropped accounting) on
// the fault-free trajectory: the injector is stateless and draws no
// shared randomness.
TEST(AggIntegration, ByzantineOnlyPlanLeavesTransportUntouched) {
  Rng rng(45);
  SynthSpec spec;
  spec.train_size = 200;
  spec.test_size = 40;
  spec.image_size = 8;
  TrainTest tt = make_synth_c10(spec, rng);
  SearchConfig cfg = agg_config(6);
  auto parts = iid_partition(tt.train.size(), 6, rng);

  SearchOptions clean;
  const RunResult a = run_campaign(cfg, tt, parts, 2, 8, clean);
  SearchOptions byz;
  byz.fault_plan = FaultPlan::parse("sign_flip=0.4,sign_flip_lambda=5");
  const RunResult b = run_campaign(cfg, tt, parts, 2, 8, byz);

  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].bytes_down, b.records[i].bytes_down);
    EXPECT_EQ(a.records[i].bytes_up, b.records[i].bytes_up);
    EXPECT_DOUBLE_EQ(a.records[i].max_latency_s, b.records[i].max_latency_s);
    EXPECT_EQ(a.records[i].offline, b.records[i].offline);
    EXPECT_EQ(a.records[i].dropped, b.records[i].dropped);
    EXPECT_EQ(a.records[i].arrived, b.records[i].arrived);
  }
  // All attacked updates were absorbed by the (non-robust) estimator:
  // they count as recovered, keeping the ledger exact.
  EXPECT_GT(b.faults.injected_sign_flip, 0u);
  EXPECT_EQ(b.faults.injected_total(), b.faults.accounted());
  EXPECT_EQ(b.faults.rejected, 0u);
}

// Defaults must dispatch through the exact legacy path: an explicitly
// spelled-out mean/no-defense configuration reproduces the default run
// bit for bit.
TEST(AggIntegration, ExplicitMeanConfigIsBitIdenticalToDefault) {
  Rng rng(46);
  SynthSpec spec;
  spec.train_size = 200;
  spec.test_size = 40;
  spec.image_size = 8;
  TrainTest tt = make_synth_c10(spec, rng);
  SearchConfig cfg = agg_config(6);
  auto parts = iid_partition(tt.train.size(), 6, rng);

  SearchOptions dflt;
  SearchOptions spelled;
  spelled.aggregator = AggregatorConfig::parse("mean");
  spelled.winsorize_rewards_k = 0.0;
  spelled.baseline_mode = BaselineMode::kMeanReward;
  spelled.adaptive_screen = false;

  const RunResult a = run_campaign(cfg, tt, parts, 3, 10, dflt);
  const RunResult b = run_campaign(cfg, tt, parts, 3, 10, spelled);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.records[i].mean_reward, b.records[i].mean_reward);
    EXPECT_DOUBLE_EQ(a.records[i].moving_avg, b.records[i].moving_avg);
    EXPECT_DOUBLE_EQ(a.records[i].baseline, b.records[i].baseline);
    EXPECT_DOUBLE_EQ(a.records[i].alpha_entropy, b.records[i].alpha_entropy);
  }
  EXPECT_EQ(a.theta, b.theta);  // bitwise
}

// Kill-and-resume under attack + defense: the resumed run replays the
// exact record stream, robust-telemetry fields included, and ends with
// bit-identical weights and ledgers.
TEST(AggIntegration, ResumeUnderAttackAndDefenseIsBitIdentical) {
  Rng rng(47);
  SynthSpec spec;
  spec.train_size = 200;
  spec.test_size = 40;
  spec.image_size = 8;
  TrainTest tt = make_synth_c10(spec, rng);
  SearchConfig cfg = agg_config(6);
  auto parts = iid_partition(tt.train.size(), 6, rng);

  SearchOptions opts;
  opts.stale_policy = StalePolicy::kCompensate;
  opts.staleness = StalenessDistribution::slight();
  opts.fault_plan = FaultPlan::parse(
      "sign_flip=0.3,sign_flip_lambda=10,reward_attack=0.2,"
      "reward_attack_delta=0.5,corrupt=0.1");
  opts.aggregator = AggregatorConfig::parse("trimmed_mean:2");
  opts.winsorize_rewards_k = 1.5;
  opts.baseline_mode = BaselineMode::kMedianReward;
  opts.adaptive_screen = true;

  FederatedSearch reference(cfg, tt.train, parts);
  reference.run_warmup(2);
  const auto full = reference.run_search(10, opts);

  std::vector<std::uint8_t> frozen;
  {
    FederatedSearch first(cfg, tt.train, parts);
    first.run_warmup(2);
    first.run_search(4, opts);
    frozen = first.checkpoint().serialize();
  }  // destroyed — the crash
  FederatedSearch resumed(cfg, tt.train, parts);
  resumed.restore(SearchCheckpoint::deserialize(frozen));
  const auto tail = resumed.run_search(6, opts);
  ASSERT_EQ(tail.size(), 6u);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    SCOPED_TRACE("tail round " + std::to_string(i));
    const RoundRecord& want = full[4 + i];
    const RoundRecord& got = tail[i];
    EXPECT_EQ(want.round, got.round);
    EXPECT_DOUBLE_EQ(want.mean_reward, got.mean_reward);
    EXPECT_DOUBLE_EQ(want.moving_avg, got.moving_avg);
    EXPECT_DOUBLE_EQ(want.baseline, got.baseline);
    EXPECT_EQ(want.rejected, got.rejected);
    EXPECT_EQ(want.winsorized, got.winsorized);
    EXPECT_EQ(want.agg_trimmed, got.agg_trimmed);
    EXPECT_DOUBLE_EQ(want.screen_bound, got.screen_bound);
  }
  EXPECT_EQ(reference.supernet().flat_values(),
            resumed.supernet().flat_values());
  EXPECT_EQ(reference.policy().alpha().flatten(),
            resumed.policy().alpha().flatten());
  EXPECT_EQ(reference.fault_stats().injected_total(),
            resumed.fault_stats().injected_total());
  EXPECT_EQ(reference.robust_stats().trimmed_values,
            resumed.robust_stats().trimmed_values);
  EXPECT_EQ(reference.robust_stats().winsorized_rewards,
            resumed.robust_stats().winsorized_rewards);
}

}  // namespace
}  // namespace fms
