// Run specs (src/common/spec.h): the fault and churn plans parse and print
// through one checked key walk, exactly, and the keyed hash behind every
// fault and churn schedule stays pinned to the values it has always drawn.
// The rejected inputs sit with each spec's own parse tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/spec.h"
#include "src/fault/fault.h"
#include "src/sim/churn.h"

namespace fms {
namespace {

// Uniform in [0, 1) at full double precision, so the spelling of a drawn
// real needs all 17 significant digits.
double u01(Rng& rng) {
  return static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53;
}

double in_range(Rng& rng, double lo, double hi) {
  return lo + (hi - lo) * u01(rng);
}

// Uniform in [lo, INT_MAX], for lo >= 0.
int at_least(Rng& rng, int lo) {
  const auto span =
      static_cast<std::uint64_t>(std::numeric_limits<int>::max() - lo) + 1;
  return lo + static_cast<int>(rng.next_u64() % span);
}

FaultPlan random_fault_plan(Rng& rng) {
  FaultPlan p;
  p.crash_fraction = u01(rng);
  p.crash_round = static_cast<int>(rng.next_u64());  // any int, negatives too
  p.crash_spread = at_least(rng, 0);
  p.dropout_p = u01(rng);
  p.dropout_rounds = at_least(rng, 1);
  p.link_failure_p = u01(rng);
  p.uplink_failure_p = u01(rng);
  p.backoff_jitter = u01(rng);
  p.collapse_p = u01(rng);
  p.collapse_factor = 1.0 - u01(rng);  // (0, 1]
  p.corrupt_p = u01(rng);
  p.corrupt_bits = at_least(rng, 1);
  p.divergent_fraction = u01(rng);
  p.divergent_p = u01(rng);
  p.sign_flip_fraction = u01(rng);
  p.sign_flip_lambda = in_range(rng, 1e-9, 1e3);
  p.grad_scale_fraction = u01(rng);
  p.grad_scale_lambda = in_range(rng, 1e-9, 1e6);
  p.collude_fraction = u01(rng);
  p.collude_scale = in_range(rng, 1e-9, 1e2);
  p.reward_attack_fraction = u01(rng);
  p.reward_attack_delta = in_range(rng, -1.0, 1.0);
  p.disk_eio_p = u01(rng);
  p.disk_short_p = u01(rng);
  p.disk_corrupt_p = u01(rng);
  p.disk_corrupt_bits = at_least(rng, 1);
  p.seed = rng.next_u64() | (std::uint64_t{1} << 63);  // above 2^53
  return p;
}

void expect_same(const FaultPlan& a, const FaultPlan& b) {
  EXPECT_EQ(a.crash_fraction, b.crash_fraction);
  EXPECT_EQ(a.crash_round, b.crash_round);
  EXPECT_EQ(a.crash_spread, b.crash_spread);
  EXPECT_EQ(a.dropout_p, b.dropout_p);
  EXPECT_EQ(a.dropout_rounds, b.dropout_rounds);
  EXPECT_EQ(a.link_failure_p, b.link_failure_p);
  EXPECT_EQ(a.uplink_failure_p, b.uplink_failure_p);
  EXPECT_EQ(a.backoff_jitter, b.backoff_jitter);
  EXPECT_EQ(a.collapse_p, b.collapse_p);
  EXPECT_EQ(a.collapse_factor, b.collapse_factor);
  EXPECT_EQ(a.corrupt_p, b.corrupt_p);
  EXPECT_EQ(a.corrupt_bits, b.corrupt_bits);
  EXPECT_EQ(a.divergent_fraction, b.divergent_fraction);
  EXPECT_EQ(a.divergent_p, b.divergent_p);
  EXPECT_EQ(a.sign_flip_fraction, b.sign_flip_fraction);
  EXPECT_EQ(a.sign_flip_lambda, b.sign_flip_lambda);
  EXPECT_EQ(a.grad_scale_fraction, b.grad_scale_fraction);
  EXPECT_EQ(a.grad_scale_lambda, b.grad_scale_lambda);
  EXPECT_EQ(a.collude_fraction, b.collude_fraction);
  EXPECT_EQ(a.collude_scale, b.collude_scale);
  EXPECT_EQ(a.reward_attack_fraction, b.reward_attack_fraction);
  EXPECT_EQ(a.reward_attack_delta, b.reward_attack_delta);
  EXPECT_EQ(a.disk_eio_p, b.disk_eio_p);
  EXPECT_EQ(a.disk_short_p, b.disk_short_p);
  EXPECT_EQ(a.disk_corrupt_p, b.disk_corrupt_p);
  EXPECT_EQ(a.disk_corrupt_bits, b.disk_corrupt_bits);
  EXPECT_EQ(a.seed, b.seed);
}

ChurnPlan random_churn_plan(Rng& rng) {
  ChurnPlan p;
  p.leave_p = u01(rng);
  p.away_min = at_least(rng, 1);
  p.away_max = at_least(rng, p.away_min);
  p.late_join_fraction = u01(rng);
  p.join_spread = at_least(rng, 1);
  p.burst_fraction = u01(rng);
  p.burst_round = at_least(rng, 0);
  p.burst_away = at_least(rng, 1);
  p.diurnal_amplitude = in_range(rng, 0.0, 50.0);
  p.diurnal_period = at_least(rng, 2);
  p.seed = rng.next_u64() | (std::uint64_t{1} << 63);
  return p;
}

void expect_same(const ChurnPlan& a, const ChurnPlan& b) {
  EXPECT_EQ(a.leave_p, b.leave_p);
  EXPECT_EQ(a.away_min, b.away_min);
  EXPECT_EQ(a.away_max, b.away_max);
  EXPECT_EQ(a.late_join_fraction, b.late_join_fraction);
  EXPECT_EQ(a.join_spread, b.join_spread);
  EXPECT_EQ(a.burst_fraction, b.burst_fraction);
  EXPECT_EQ(a.burst_round, b.burst_round);
  EXPECT_EQ(a.burst_away, b.burst_away);
  EXPECT_EQ(a.diurnal_amplitude, b.diurnal_amplitude);
  EXPECT_EQ(a.diurnal_period, b.diurnal_period);
  EXPECT_EQ(a.seed, b.seed);
}

TEST(RunSpec, FaultPlanToStringParsesBackFieldForField) {
  Rng rng(0x5bec);
  for (int i = 0; i < 200; ++i) {
    const FaultPlan p = random_fault_plan(rng);
    SCOPED_TRACE(p.to_string());
    expect_same(FaultPlan::parse(p.to_string()), p);
  }
  expect_same(FaultPlan::parse(FaultPlan{}.to_string()), FaultPlan{});
  expect_same(FaultPlan::parse(FaultPlan::severe().to_string()),
              FaultPlan::severe());
}

TEST(RunSpec, ChurnPlanToStringParsesBackFieldForField) {
  Rng rng(0xc4);
  for (int i = 0; i < 200; ++i) {
    const ChurnPlan p = random_churn_plan(rng);
    SCOPED_TRACE(p.to_string());
    expect_same(ChurnPlan::parse(p.to_string()), p);
  }
  expect_same(ChurnPlan::parse(ChurnPlan{}.to_string()), ChurnPlan{});
}

TEST(RunSpec, ToStringIsShortestExact) {
  FaultPlan p;
  p.crash_fraction = 0.1234567;
  p.seed = 9007199254740993ULL;  // 2^53 + 1: a double would lose it
  const std::string s = p.to_string();
  EXPECT_NE(s.find("crash=0.1234567,"), std::string::npos) << s;
  EXPECT_NE(s.find("seed=9007199254740993"), std::string::npos) << s;
  EXPECT_EQ(FaultPlan::parse("seed=9007199254740993").seed,
            9007199254740993ULL);
  EXPECT_EQ(FaultPlan::parse("seed=18446744073709551615").seed,
            std::numeric_limits<std::uint64_t>::max());
}

TEST(RunSpec, ErrorsNameTheKeyAndTheBound) {
  try {
    FaultPlan::parse("crash_spread=-1");
    FAIL() << "crash_spread=-1 parsed";
  } catch (const CheckError& e) {
    EXPECT_STREQ(e.what(), "fault-plan crash_spread must be >= 0, got -1");
  }
  try {
    ChurnPlan::parse("join_spread=2.5");
    FAIL() << "join_spread=2.5 parsed";
  } catch (const CheckError& e) {
    EXPECT_STREQ(e.what(),
                 "bad churn-plan value for join_spread: '2.5' (expected an "
                 "integer)");
  }
  EXPECT_EQ(describe(Bound{0, 1, true}), "in (0, 1]");
  EXPECT_EQ(describe(kPositive), "> 0");
}

// Values the fault and churn schedules have drawn since their first
// version: an edit that changes any of them reshuffles every schedule.
TEST(KeyedHash, PinnedToTheScheduleItHasAlwaysDrawn) {
  struct Pin {
    std::uint64_t seed, salt, a, b, hash;
    double u;
  };
  const Pin pins[] = {
      {0x7a0175, 0xC1, 3, 0, 0xaf05d11aa91ec318ULL, 0x1.5e0ba235523d8p-1},
      {0xC4DA, 0x33, 5, 17, 0x3cacbdda3d9b68fbULL, 0x1.e565eed1ecdb4p-3},
      {0, 0, 0, 0, 0x238275bc38fcbe91ULL, 0x1.1c13ade1c7e5cp-3},
      {~std::uint64_t{0}, 0xE3, 12, 1, 0x95ca06c7558f747dULL,
       0x1.2b940d8eab1eep-1},
      {42, 0xA4, 7, 0, 0xa17307d95d76e25fULL, 0x1.42e60fb2baedcp-1},
  };
  for (const Pin& p : pins) {
    EXPECT_EQ(keyed_hash(p.seed, p.salt, p.a, p.b), p.hash);
    EXPECT_EQ(keyed_u01(p.seed, p.salt, p.a, p.b), p.u);
  }
}

}  // namespace
}  // namespace fms
