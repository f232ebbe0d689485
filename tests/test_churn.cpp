// Churn + graceful-degradation surface: the deterministic churn schedule,
// the persistent client registry, the adaptive round-deadline estimator,
// the degradation ladder's hysteresis, and the end-to-end churn campaign
// (steady churn + burst mass-leave, every mode entered and exited, the
// search still converges, kill-and-resume stays bit-identical). Selected
// with `ctest -L churn`.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/check.h"
#include "src/common/serialize.h"
#include "src/core/checkpoint.h"
#include "src/core/deadline.h"
#include "src/core/search.h"
#include "src/data/synth.h"
#include "src/fault/degrade.h"
#include "src/fed/registry.h"
#include "src/sim/churn.h"
#include "src/sim/staleness.h"

namespace fms {
namespace {

// --- ChurnPlan: parsing ---

TEST(ChurnPlan, ParseRoundTripsThroughToString) {
  const ChurnPlan plan = ChurnPlan::parse(
      "leave=0.1,away_min=1,away_max=3,late_join=0.2,join_spread=5,"
      "burst=0.3,burst_round=7,burst_away=4,diurnal=0.5,diurnal_period=24,"
      "seed=9");
  EXPECT_DOUBLE_EQ(plan.leave_p, 0.1);
  EXPECT_EQ(plan.away_min, 1);
  EXPECT_EQ(plan.away_max, 3);
  EXPECT_DOUBLE_EQ(plan.late_join_fraction, 0.2);
  EXPECT_EQ(plan.join_spread, 5);
  EXPECT_DOUBLE_EQ(plan.burst_fraction, 0.3);
  EXPECT_EQ(plan.burst_round, 7);
  EXPECT_EQ(plan.burst_away, 4);
  EXPECT_DOUBLE_EQ(plan.diurnal_amplitude, 0.5);
  EXPECT_EQ(plan.diurnal_period, 24);
  EXPECT_EQ(plan.seed, 9u);
  EXPECT_FALSE(plan.empty());

  const ChurnPlan again = ChurnPlan::parse(plan.to_string());
  EXPECT_EQ(again.to_string(), plan.to_string());
}

TEST(ChurnPlan, EmptyAndDefaultPlansAreInert) {
  EXPECT_TRUE(ChurnPlan{}.empty());
  EXPECT_TRUE(ChurnPlan::parse("").empty());
  // Tuning knobs without a rate keep the plan inert.
  EXPECT_TRUE(ChurnPlan::parse("away_min=3,away_max=5").empty());
}

TEST(ChurnPlan, BadSpecsAreRejected) {
  EXPECT_THROW(ChurnPlan::parse("bogus=1"), CheckError);
  EXPECT_THROW(ChurnPlan::parse("leave"), CheckError);
  EXPECT_THROW(ChurnPlan::parse("leave=1.5"), CheckError);
  EXPECT_THROW(ChurnPlan::parse("leave=abc"), CheckError);
  EXPECT_THROW(ChurnPlan::parse("away_min=0"), CheckError);
  EXPECT_THROW(ChurnPlan::parse("away_min=5,away_max=2"), CheckError);
  EXPECT_THROW(ChurnPlan::parse("diurnal_period=1"), CheckError);
  EXPECT_THROW(ChurnPlan::parse("burst_round=-1"), CheckError);
  // Integer keys take integer literals: both of these used to read as 1.
  EXPECT_THROW(ChurnPlan::parse("away_min=1.5"), CheckError);
  EXPECT_THROW(ChurnPlan::parse("away_min=1.5,away_max=1.2"), CheckError);
  EXPECT_THROW(ChurnPlan::parse("seed=1e3"), CheckError);
  EXPECT_THROW(ChurnPlan::parse("diurnal=inf"), CheckError);
}

// --- ChurnModel: schedule semantics ---

TEST(ChurnModel, DeterministicAndQueryOrderIndependent) {
  const ChurnPlan plan = ChurnPlan::parse(
      "leave=0.15,away_min=2,away_max=5,late_join=0.2,burst=0.3,"
      "burst_round=10,seed=3");
  const ChurnModel a(plan, 16);
  const ChurnModel b(plan, 16);
  for (int p = 0; p < 16; ++p) {
    for (int r = 0; r < 40; ++r) {
      EXPECT_EQ(a.is_live(15 - p, 39 - r), b.is_live(15 - p, 39 - r));
    }
    EXPECT_EQ(a.join_round(p), b.join_round(p));
  }
  ChurnPlan other = plan;
  other.seed = 4;
  const ChurnModel c(other, 16);
  int differing = 0;
  for (int p = 0; p < 16; ++p) {
    for (int r = 0; r < 40; ++r) {
      if (a.is_live(p, r) != c.is_live(p, r)) ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(ChurnModel, EmptyPlanKeepsEveryoneLive) {
  const ChurnModel model(ChurnPlan{}, 8);
  EXPECT_FALSE(model.active());
  for (int p = 0; p < 8; ++p) {
    EXPECT_EQ(model.join_round(p), 0);
    for (int r = 0; r < 20; ++r) EXPECT_TRUE(model.is_live(p, r));
  }
}

TEST(ChurnModel, BurstRemovesTheSelectedCohortForExactlyItsWindow) {
  const ChurnPlan plan =
      ChurnPlan::parse("burst=1.0,burst_round=5,burst_away=3");
  const ChurnModel model(plan, 12);
  for (int p = 0; p < 12; ++p) {
    EXPECT_TRUE(model.is_live(p, 4));
    for (int r = 5; r < 8; ++r) EXPECT_FALSE(model.is_live(p, r));
    EXPECT_TRUE(model.is_live(p, 8));
  }
  // A fractional burst takes some but not all of the fleet.
  const ChurnModel half(ChurnPlan::parse("burst=0.5,burst_round=5"), 64);
  int gone = 0;
  for (int p = 0; p < 64; ++p) {
    if (!half.is_live(p, 5)) ++gone;
  }
  EXPECT_GT(gone, 16);
  EXPECT_LT(gone, 48);
}

TEST(ChurnModel, LateJoinersAreAbsentUntilTheirJoinRound) {
  const ChurnPlan plan = ChurnPlan::parse("late_join=1.0,join_spread=4");
  const ChurnModel model(plan, 32);
  for (int p = 0; p < 32; ++p) {
    const int jr = model.join_round(p);
    EXPECT_GE(jr, 1);
    EXPECT_LE(jr, 4);
    for (int r = 0; r < jr; ++r) EXPECT_FALSE(model.is_live(p, r));
    // No steady churn in the plan: live from the join round on.
    for (int r = jr; r < jr + 5; ++r) EXPECT_TRUE(model.is_live(p, r));
  }
}

TEST(ChurnModel, SteadyStateAbsenceRoughlyMatchesTheEquilibrium) {
  // leave=0.1 with mean away of 3 rounds => absent fraction near
  // 0.1 * 3 / (1 + 0.1 * 3) ~ 0.23 once the process has mixed.
  const ChurnPlan plan = ChurnPlan::parse("leave=0.1,away_min=2,away_max=4");
  const ChurnModel model(plan, 400);
  int absent = 0;
  for (int p = 0; p < 400; ++p) {
    if (!model.is_live(p, 50)) ++absent;
  }
  const double frac = static_cast<double>(absent) / 400.0;
  EXPECT_GT(frac, 0.10);
  EXPECT_LT(frac, 0.40);
}

TEST(ChurnModel, DiurnalPhasesModulateTheLeaveRate) {
  const ChurnPlan plan =
      ChurnPlan::parse("leave=0.1,diurnal=0.5,diurnal_period=10");
  const ChurnModel model(plan, 4);
  // Trough at the period boundary, peak mid-period, periodic.
  EXPECT_LT(model.leave_rate(0), 0.1);
  EXPECT_GT(model.leave_rate(5), 0.1);
  EXPECT_DOUBLE_EQ(model.leave_rate(3), model.leave_rate(13));
  // Without amplitude the rate is flat.
  const ChurnModel flat(ChurnPlan::parse("leave=0.1"), 4);
  EXPECT_DOUBLE_EQ(flat.leave_rate(0), flat.leave_rate(5));
}

// --- ClientRegistry: membership bookkeeping ---

TEST(ClientRegistry, ChurnFreeRoundsReportABaselineNotAJoinWave) {
  ClientRegistry reg(6);
  const ChurnModel quiet(ChurnPlan{}, 6);
  for (int r = 0; r < 5; ++r) {
    const auto mem = reg.begin_round(quiet, r);
    EXPECT_EQ(mem.live, 6);
    EXPECT_EQ(mem.joined, 0);
    EXPECT_EQ(mem.left, 0);
    for (char c : mem.rejoined) EXPECT_EQ(c, 0);
  }
  EXPECT_EQ(reg.total_joins(), 0u);
  EXPECT_EQ(reg.total_leaves(), 0u);
  EXPECT_EQ(reg.info(0).rounds_live, 5);
  EXPECT_EQ(reg.info(0).first_live_round, 0);
}

TEST(ClientRegistry, TracksTransitionsAndRejoinsThroughABurst) {
  const ChurnPlan plan =
      ChurnPlan::parse("burst=1.0,burst_round=2,burst_away=2");
  ClientRegistry reg(4);
  const ChurnModel churn(plan, 4);
  EXPECT_EQ(reg.begin_round(churn, 0).live, 4);
  EXPECT_EQ(reg.begin_round(churn, 1).live, 4);
  const auto gone = reg.begin_round(churn, 2);
  EXPECT_EQ(gone.live, 0);
  EXPECT_EQ(gone.left, 4);
  reg.begin_round(churn, 3);
  const auto back = reg.begin_round(churn, 4);
  EXPECT_EQ(back.live, 4);
  EXPECT_EQ(back.joined, 4);
  // Everyone was seen before the burst: the return is a rejoin, and the
  // soft-sync path will treat their first update back as stale.
  for (char c : back.rejoined) EXPECT_EQ(c, 1);
  EXPECT_EQ(reg.total_joins(), 4u);
  EXPECT_EQ(reg.total_leaves(), 4u);
  EXPECT_EQ(reg.info(1).rounds_absent, 2);
}

TEST(ClientRegistry, SerializeRestoreRoundTripsTheFullState) {
  const ChurnPlan plan = ChurnPlan::parse("leave=0.3,away_min=2,away_max=4");
  ClientRegistry reg(8);
  const ChurnModel churn(plan, 8);
  for (int r = 0; r < 12; ++r) {
    const auto mem = reg.begin_round(churn, r);
    for (int p = 0; p < 8; ++p) {
      if (mem.live_mask[static_cast<std::size_t>(p)] == 0) continue;
      reg.note_dispatch(p, 1.5 + 0.1 * p);
      reg.note_applied(p, r % 3);
    }
  }
  ByteWriter w;
  reg.serialize(w);
  const std::vector<std::uint8_t> bytes = w.take();

  ClientRegistry copy(8);
  ByteReader r(bytes);
  copy.restore(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(copy.total_joins(), reg.total_joins());
  EXPECT_EQ(copy.total_leaves(), reg.total_leaves());
  for (int p = 0; p < 8; ++p) {
    const ClientInfo& a = reg.info(p);
    const ClientInfo& b = copy.info(p);
    EXPECT_EQ(a.live, b.live);
    EXPECT_EQ(a.ever_seen, b.ever_seen);
    EXPECT_EQ(a.first_live_round, b.first_live_round);
    EXPECT_EQ(a.last_live_round, b.last_live_round);
    EXPECT_EQ(a.joins, b.joins);
    EXPECT_EQ(a.leaves, b.leaves);
    EXPECT_EQ(a.rounds_live, b.rounds_live);
    EXPECT_EQ(a.rounds_absent, b.rounds_absent);
    EXPECT_EQ(a.dispatched, b.dispatched);
    EXPECT_EQ(a.updates_applied, b.updates_applied);
    EXPECT_EQ(a.stale_updates, b.stale_updates);
    EXPECT_EQ(a.tau_sum, b.tau_sum);
    EXPECT_EQ(a.max_tau, b.max_tau);
    EXPECT_DOUBLE_EQ(a.latency_ema, b.latency_ema);
    EXPECT_EQ(a.latency_ema_set, b.latency_ema_set);
    // Device profiles re-derive from the id.
    EXPECT_EQ(a.device.name, b.device.name);
  }
  // And the restored registry continues the same membership stream.
  ClientRegistry fresh(8);
  ByteReader r2(bytes);
  fresh.restore(r2);
  for (int r3 = 12; r3 < 16; ++r3) {
    const auto ma = reg.begin_round(churn, r3);
    const auto mb = fresh.begin_round(churn, r3);
    EXPECT_EQ(ma.live, mb.live);
    EXPECT_EQ(ma.joined, mb.joined);
    EXPECT_EQ(ma.left, mb.left);
    EXPECT_EQ(ma.live_mask, mb.live_mask);
    EXPECT_EQ(ma.rejoined, mb.rejoined);
  }
}

// --- DeadlineEstimator: windowed-quantile deadlines ---

TEST(DeadlineEstimator, ColdOrDisabledFallsBackToInfinity) {
  DeadlineEstimator est;
  AdaptiveTimeoutConfig cfg;
  cfg.enabled = true;
  cfg.min_samples = 4;
  EXPECT_TRUE(std::isinf(est.deadline(cfg)));
  for (int i = 0; i < 3; ++i) est.add_sample(1.0, cfg.window);
  EXPECT_TRUE(std::isinf(est.deadline(cfg)));  // still below min_samples
  est.add_sample(1.0, cfg.window);
  EXPECT_TRUE(std::isfinite(est.deadline(cfg)));
  cfg.enabled = false;
  EXPECT_TRUE(std::isinf(est.deadline(cfg)));  // warm but disabled
}

TEST(DeadlineEstimator, QuantileTimesSlackWithClamps) {
  DeadlineEstimator est;
  AdaptiveTimeoutConfig cfg;
  cfg.enabled = true;
  cfg.quantile = 0.90;
  cfg.slack = 1.5;
  cfg.min_samples = 4;
  for (int i = 1; i <= 10; ++i) {
    est.add_sample(static_cast<double>(i), cfg.window);
  }
  // p90 of 1..10 is the 9th order statistic (ceil(0.9*10) = 9): 9 * 1.5.
  EXPECT_DOUBLE_EQ(est.deadline(cfg), 13.5);
  cfg.ceil_s = 5.0;
  EXPECT_DOUBLE_EQ(est.deadline(cfg), 5.0);
  cfg.ceil_s = 0.0;
  cfg.floor_s = 20.0;
  EXPECT_DOUBLE_EQ(est.deadline(cfg), 20.0);
}

TEST(DeadlineEstimator, WindowEvictsOldestAndRoundTripsSerialization) {
  DeadlineEstimator est;
  for (int i = 0; i < 10; ++i) est.add_sample(static_cast<double>(i), 4);
  EXPECT_EQ(est.samples(), 4u);
  AdaptiveTimeoutConfig cfg;
  cfg.enabled = true;
  cfg.min_samples = 1;
  cfg.slack = 1.0;
  cfg.floor_s = 0.0;
  // Window holds {6, 7, 8, 9}; p90 picks the last.
  EXPECT_DOUBLE_EQ(est.deadline(cfg), 9.0);

  ByteWriter w;
  est.serialize(w);
  const std::vector<std::uint8_t> bytes = w.take();
  DeadlineEstimator copy;
  ByteReader r(bytes);
  copy.restore(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(copy.samples(), est.samples());
  EXPECT_DOUBLE_EQ(copy.deadline(cfg), est.deadline(cfg));
}

// --- DegradationController: the hysteresis ladder ---

TEST(DegradationController, StepsDownOnStreaksAndReArmsBetweenModes) {
  DegradationController ctl;
  DegradeConfig cfg;
  cfg.max_mode = 3;
  cfg.trip_rounds = 2;
  cfg.recover_rounds = 3;

  EXPECT_FALSE(ctl.observe(true, cfg).changed);  // streak 1 of 2
  const auto down = ctl.observe(true, cfg);
  EXPECT_TRUE(down.changed);
  EXPECT_EQ(down.from, DegradeMode::kNormal);
  EXPECT_EQ(down.to, DegradeMode::kRelaxDeadline);
  // The streak re-arms: one more bad round is not enough for mode 2.
  EXPECT_FALSE(ctl.observe(true, cfg).changed);
  EXPECT_TRUE(ctl.observe(true, cfg).changed);
  EXPECT_EQ(ctl.mode(), DegradeMode::kShrinkCohort);
  ctl.observe(true, cfg);
  ctl.observe(true, cfg);
  EXPECT_EQ(ctl.mode(), DegradeMode::kPartialQuorum);
  // At the configured floor further bad rounds change nothing.
  EXPECT_FALSE(ctl.observe(true, cfg).changed);
  EXPECT_FALSE(ctl.observe(true, cfg).changed);
  EXPECT_EQ(ctl.entries(DegradeMode::kRelaxDeadline), 1);
  EXPECT_EQ(ctl.entries(DegradeMode::kShrinkCohort), 1);
  EXPECT_EQ(ctl.entries(DegradeMode::kPartialQuorum), 1);

  // Recovery: recover_rounds consecutive good rounds per step.
  ctl.observe(false, cfg);
  ctl.observe(false, cfg);
  const auto up = ctl.observe(false, cfg);
  EXPECT_TRUE(up.changed);
  EXPECT_EQ(up.to, DegradeMode::kShrinkCohort);
  // A bad round mid-recovery resets the good streak.
  ctl.observe(false, cfg);
  ctl.observe(true, cfg);
  ctl.observe(false, cfg);
  ctl.observe(false, cfg);
  EXPECT_EQ(ctl.mode(), DegradeMode::kShrinkCohort);
  ctl.observe(false, cfg);
  EXPECT_EQ(ctl.mode(), DegradeMode::kRelaxDeadline);
  for (int i = 0; i < 3; ++i) ctl.observe(false, cfg);
  EXPECT_EQ(ctl.mode(), DegradeMode::kNormal);
  EXPECT_EQ(ctl.transitions(), 6);
}

TEST(DegradationController, MaxModeCapsTheLadderAndZeroDisablesDescent) {
  DegradationController ctl;
  DegradeConfig shallow;
  shallow.max_mode = 1;
  shallow.trip_rounds = 1;
  ctl.observe(true, shallow);
  EXPECT_EQ(ctl.mode(), DegradeMode::kRelaxDeadline);
  for (int i = 0; i < 5; ++i) ctl.observe(true, shallow);
  EXPECT_EQ(ctl.mode(), DegradeMode::kRelaxDeadline);

  // Resuming with a lower max_mode clamps an inherited deeper mode.
  DegradeConfig off;
  off.max_mode = 0;
  ctl.observe(true, off);
  EXPECT_EQ(ctl.mode(), DegradeMode::kNormal);
}

TEST(DegradationController, SerializeRestoreRoundTripsTheLadderState) {
  DegradationController ctl;
  DegradeConfig cfg;
  cfg.max_mode = 3;
  cfg.trip_rounds = 2;
  for (int i = 0; i < 5; ++i) ctl.observe(true, cfg);
  ctl.observe(false, cfg);
  ByteWriter w;
  ctl.serialize(w);
  const std::vector<std::uint8_t> bytes = w.take();

  DegradationController copy;
  ByteReader r(bytes);
  copy.restore(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(copy.mode(), ctl.mode());
  EXPECT_EQ(copy.transitions(), ctl.transitions());
  for (int m = 0; m < 4; ++m) {
    EXPECT_EQ(copy.entries(static_cast<DegradeMode>(m)),
              ctl.entries(static_cast<DegradeMode>(m)));
  }
  // Identical futures: feed both the same outcomes.
  for (int i = 0; i < 4; ++i) {
    const auto a = ctl.observe(i % 2 == 0, cfg);
    const auto b = copy.observe(i % 2 == 0, cfg);
    EXPECT_EQ(a.changed, b.changed);
    EXPECT_EQ(ctl.mode(), copy.mode());
  }
}

// --- end-to-end: the real search loop under churn ---

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

TEST(ChurnSearch, ChurnFreeRunsReportFullMembershipAndStayMode0) {
  Rng rng(61);
  TrainTest tt = tiny_data(rng);
  SearchConfig cfg = tiny_config();
  auto parts = iid_partition(tt.train.size(), cfg.schedule.num_participants,
                             rng);
  FederatedSearch search(cfg, tt.train, parts);
  SearchOptions opts;
  opts.degrade.max_mode = 3;  // controller armed but never provoked
  const auto records = search.run_search(6, opts);
  for (const auto& r : records) {
    EXPECT_EQ(r.live, 4);
    EXPECT_EQ(r.joined, 0);
    EXPECT_EQ(r.left, 0);
    EXPECT_EQ(r.cohort, 4);
    EXPECT_EQ(r.shed, 0);
    EXPECT_EQ(r.degrade_mode, 0);
    EXPECT_TRUE(r.degrade_transition.empty());
  }
  EXPECT_EQ(search.degrade_mode(), DegradeMode::kNormal);
  EXPECT_EQ(search.degrade_transitions(), 0);
  EXPECT_EQ(search.registry().total_joins(), 0u);
  EXPECT_EQ(search.registry().total_leaves(), 0u);
}

TEST(ChurnSearch, ChurnLayerIsBitIdenticalWhenInert) {
  Rng rng(62);
  TrainTest tt = tiny_data(rng);
  SearchConfig cfg = tiny_config();
  auto parts = iid_partition(tt.train.size(), cfg.schedule.num_participants,
                             rng);
  SearchOptions plain;
  SearchOptions armed;
  armed.degrade.max_mode = 3;  // no churn, no timeout: never trips
  FederatedSearch a(cfg, tt.train, parts);
  FederatedSearch b(cfg, tt.train, parts);
  const auto ra = a.run_search(8, plain);
  const auto rb = b.run_search(8, armed);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra[i].mean_reward, rb[i].mean_reward);
    EXPECT_DOUBLE_EQ(ra[i].moving_avg, rb[i].moving_avg);
    EXPECT_EQ(ra[i].arrived, rb[i].arrived);
  }
  EXPECT_EQ(a.supernet().flat_values(), b.supernet().flat_values());
  EXPECT_EQ(a.policy().alpha().flatten(), b.policy().alpha().flatten());
}

TEST(ChurnSearch, RejoiningClientsComeBackStaleUnderSoftSync) {
  Rng rng(63);
  TrainTest tt = tiny_data(rng);
  SearchConfig cfg = tiny_config();
  cfg.schedule.num_participants = 6;
  auto parts = iid_partition(tt.train.size(), 6, rng);
  FederatedSearch search(cfg, tt.train, parts);
  SearchOptions opts;
  opts.stale_policy = StalePolicy::kCompensate;
  opts.staleness = StalenessDistribution::none();  // churn is the only source
  opts.quorum = 0.5;
  opts.churn_plan = ChurnPlan::parse("leave=0.25,away_min=2,away_max=4,seed=5");
  const auto records = search.run_search(16, opts);
  int joined = 0, left = 0, stale = 0;
  for (const auto& r : records) {
    joined += r.joined;
    left += r.left;
    stale += r.stale_arrived;
    EXPECT_EQ(r.live + (6 - r.live), 6);
  }
  EXPECT_GT(left, 0);
  EXPECT_GT(joined, 0);
  // Every rejoin funnels through the staleness/DC path at least once.
  EXPECT_GT(stale, 0);
  // Churned-away clients are not faults: the ledger never saw them.
  EXPECT_EQ(search.fault_stats().injected_total(), 0u);
  // total_joins counts true rejoins only; rec.joined also includes clients
  // whose *first* appearance came after the baseline round.
  EXPECT_GT(search.registry().total_joins(), 0u);
  EXPECT_LE(search.registry().total_joins(),
            static_cast<std::uint64_t>(joined));
  EXPECT_EQ(search.registry().total_leaves(),
            static_cast<std::uint64_t>(left));
}

// The acceptance campaign: 20% steady churn plus one burst mass-leave.
// The search must complete, every degradation mode must be entered AND
// exited (visible in the per-round records), the final reward must stay
// within tolerance of the churn-free run, and a kill-and-resume mid-burst
// must reproduce the round stream bit for bit.
TEST(ChurnCampaign, BurstMassLeaveWalksTheFullLadderAndRecovers) {
  Rng rng(64);
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

  SearchOptions opts;
  opts.stale_policy = StalePolicy::kCompensate;
  opts.staleness = StalenessDistribution::none();
  opts.quorum = 0.7;
  opts.churn_plan = ChurnPlan::parse(
      "leave=0.08,away_min=2,away_max=4,burst=0.7,burst_round=14,"
      "burst_away=10,seed=6");
  opts.adaptive_timeout.enabled = true;
  opts.adaptive_timeout.window = 40;
  opts.degrade.max_mode = 3;
  opts.degrade.trip_rounds = 2;
  opts.degrade.recover_rounds = 3;
  const int kRounds = 48;

  auto run_clean = [&] {
    FederatedSearch search(cfg, tt.train, parts);
    search.run_warmup(8);
    SearchOptions clean = opts;
    clean.churn_plan = ChurnPlan{};
    return search.run_search(kRounds, clean).back().moving_avg;
  };

  FederatedSearch search(cfg, tt.train, parts);
  search.run_warmup(8);
  const auto records = search.run_search(kRounds, opts);
  ASSERT_EQ(records.size(), static_cast<std::size_t>(kRounds));

  // The search ends with finite, usable parameters.
  for (float v : search.supernet().flat_values()) {
    ASSERT_TRUE(std::isfinite(v));
  }
  for (float v : search.policy().alpha().flatten()) {
    ASSERT_TRUE(std::isfinite(v));
  }

  // Every mode 1..3 was entered, and exited again later.
  for (int m = 1; m <= 3; ++m) {
    int entered_at = -1;
    bool exited = false;
    for (const auto& r : records) {
      if (r.degrade_mode == m && entered_at < 0) entered_at = r.round;
      if (entered_at >= 0 && r.round > entered_at && r.degrade_mode < m) {
        exited = true;
      }
    }
    EXPECT_GE(entered_at, 0) << "mode " << m << " never entered";
    EXPECT_TRUE(exited) << "mode " << m << " never exited";
  }
  // Transitions are recorded as from->to edges in the round stream.
  int transition_records = 0;
  bool saw_shed = false;
  for (const auto& r : records) {
    if (!r.degrade_transition.empty()) ++transition_records;
    if (r.shed > 0) saw_shed = true;
    EXPECT_LE(r.cohort, r.live);
  }
  EXPECT_EQ(transition_records, search.degrade_transitions());
  EXPECT_GE(transition_records, 6);  // down 3 times + up 3 times minimum
  EXPECT_TRUE(saw_shed);  // mode 2 visibly shrank the cohort

  // The burst actually bit: live population collapsed during the window.
  int min_live = cfg.schedule.num_participants;
  for (const auto& r : records) min_live = std::min(min_live, r.live);
  EXPECT_LE(min_live, 4);

  // Degradation held the trajectory together: final moving-average reward
  // within 10% of the churn-free run.
  const double clean_avg = run_clean();
  EXPECT_GT(clean_avg, 0.0);
  EXPECT_LE(std::abs(records.back().moving_avg - clean_avg),
            0.10 * clean_avg)
      << "clean " << clean_avg << " vs churny "
      << records.back().moving_avg;
}

void expect_identical_churn(const RoundRecord& a, const RoundRecord& b) {
  EXPECT_EQ(a.round, b.round);
  EXPECT_DOUBLE_EQ(a.mean_reward, b.mean_reward);
  EXPECT_DOUBLE_EQ(a.moving_avg, b.moving_avg);
  EXPECT_EQ(a.arrived, b.arrived);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.live, b.live);
  EXPECT_EQ(a.joined, b.joined);
  EXPECT_EQ(a.left, b.left);
  EXPECT_EQ(a.cohort, b.cohort);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_DOUBLE_EQ(a.deadline_s, b.deadline_s);
  EXPECT_EQ(a.degrade_mode, b.degrade_mode);
  EXPECT_EQ(a.degrade_transition, b.degrade_transition);
  EXPECT_EQ(a.stale_arrived, b.stale_arrived);
  EXPECT_EQ(a.late, b.late);
  EXPECT_EQ(a.partial_quorum, b.partial_quorum);
  EXPECT_DOUBLE_EQ(a.commit_latency_s, b.commit_latency_s);
}

TEST(ChurnCampaign, KillAndResumeMidBurstIsBitIdentical) {
  Rng rng(65);
  TrainTest tt = tiny_data(rng);
  SearchConfig cfg = tiny_config();
  cfg.schedule.num_participants = 6;
  auto parts = iid_partition(tt.train.size(), 6, rng);
  SearchOptions opts;
  opts.stale_policy = StalePolicy::kCompensate;
  opts.staleness = StalenessDistribution::none();
  opts.quorum = 0.7;
  opts.churn_plan = ChurnPlan::parse(
      "leave=0.1,away_min=2,away_max=4,burst=0.6,burst_round=5,"
      "burst_away=6,seed=8");
  opts.adaptive_timeout.enabled = true;
  opts.degrade.max_mode = 3;
  opts.degrade.trip_rounds = 2;
  opts.degrade.recover_rounds = 3;

  FederatedSearch reference(cfg, tt.train, parts);
  reference.run_warmup(2);
  const auto full = reference.run_search(16, opts);

  // Checkpoint at round 8 — inside the burst, with the controller
  // degraded and the deadline window part-filled.
  std::vector<std::uint8_t> frozen;
  {
    FederatedSearch first(cfg, tt.train, parts);
    first.run_warmup(2);
    const auto head = first.run_search(8, opts);
    for (std::size_t i = 0; i < head.size(); ++i) {
      SCOPED_TRACE("head round " + std::to_string(i));
      expect_identical_churn(full[i], head[i]);
    }
    frozen = first.checkpoint().serialize();
  }
  FederatedSearch resumed(cfg, tt.train, parts);
  resumed.restore(SearchCheckpoint::deserialize(frozen));
  const auto tail = resumed.run_search(8, opts);
  ASSERT_EQ(tail.size(), 8u);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    SCOPED_TRACE("tail round " + std::to_string(i));
    expect_identical_churn(full[8 + i], tail[i]);
  }
  EXPECT_EQ(reference.supernet().flat_values(),
            resumed.supernet().flat_values());
  EXPECT_EQ(reference.policy().alpha().flatten(),
            resumed.policy().alpha().flatten());
  EXPECT_EQ(reference.degrade_mode(), resumed.degrade_mode());
  EXPECT_EQ(reference.degrade_transitions(), resumed.degrade_transitions());
  EXPECT_EQ(reference.registry().total_joins(),
            resumed.registry().total_joins());
  EXPECT_EQ(reference.registry().total_leaves(),
            resumed.registry().total_leaves());
}

TEST(ChurnCampaign, ByzantineScreenHoldsUnderChurn) {
  // Faults and churn together: the exactly-once fault ledger and the
  // screening defenses must not double-count or miss under membership
  // changes (a churned-away client is not a fault).
  Rng rng(66);
  TrainTest tt = tiny_data(rng);
  SearchConfig cfg = tiny_config();
  cfg.schedule.num_participants = 8;
  auto parts = iid_partition(tt.train.size(), 8, rng);
  FederatedSearch search(cfg, tt.train, parts);
  SearchOptions opts;
  opts.stale_policy = StalePolicy::kCompensate;
  opts.quorum = 0.6;
  opts.churn_plan = ChurnPlan::parse("leave=0.2,away_min=2,away_max=4,seed=9");
  opts.fault_plan =
      FaultPlan::parse("corrupt=0.2,divergent=0.25,divergent_p=1.0,seed=10");
  opts.degrade.max_mode = 3;
  const auto records = search.run_search(20, opts);
  const FaultStats& stats = search.fault_stats();
  EXPECT_GT(stats.injected_total(), 0u);
  EXPECT_EQ(stats.injected_total(), stats.accounted());
  int rejected = 0;
  for (const auto& r : records) rejected += r.rejected;
  EXPECT_GT(rejected, 0);  // screening still firing under churn
  for (float v : search.supernet().flat_values()) {
    ASSERT_TRUE(std::isfinite(v));
  }
}

}  // namespace
}  // namespace fms
