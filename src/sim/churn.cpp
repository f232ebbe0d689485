#include "src/sim/churn.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/spec.h"

namespace fms {
namespace {

// Decision-stream salts: each churn process draws from its own hash stream
// so tuning one rate never reshuffles another process's schedule.
constexpr std::uint64_t kSaltJoinSelect = 0x30;
constexpr std::uint64_t kSaltJoinRound = 0x31;
constexpr std::uint64_t kSaltBurstSelect = 0x32;
constexpr std::uint64_t kSaltLeave = 0x33;
constexpr std::uint64_t kSaltAwayDur = 0x34;

}  // namespace

bool ChurnPlan::empty() const {
  return leave_p <= 0.0 && late_join_fraction <= 0.0 && burst_fraction <= 0.0;
}

template <class Io, class Self>
void ChurnPlan::keys(Io& io, Self& p) {
  io("leave", p.leave_p, kUnit);
  io("away_min", p.away_min, Bound{1});
  io("away_max", p.away_max, Bound{1});
  io("late_join", p.late_join_fraction, kUnit);
  io("join_spread", p.join_spread, Bound{1});
  io("burst", p.burst_fraction, kUnit);
  io("burst_round", p.burst_round, Bound{0});
  io("burst_away", p.burst_away, Bound{1});
  io("diurnal", p.diurnal_amplitude, Bound{0});
  io("diurnal_period", p.diurnal_period, Bound{2});
  io("seed", p.seed);
}

ChurnPlan ChurnPlan::parse(const std::string& spec) {
  const auto plan = parse_spec<ChurnPlan>("churn-plan", spec);
  FMS_CHECK_MSG(plan.away_max >= plan.away_min,
                "churn-plan away_max must be >= away_min");
  return plan;
}

std::string ChurnPlan::to_string() const { return spec_string(*this); }

ChurnModel::ChurnModel(const ChurnPlan& plan, int num_participants)
    : plan_(plan) {
  FMS_CHECK_MSG(num_participants > 0, "churn model needs participants");
  FMS_CHECK_MSG(plan_.away_max >= plan_.away_min && plan_.away_min >= 1,
                "churn plan needs 1 <= away_min <= away_max");
}

double ChurnModel::u01(std::uint64_t salt, std::uint64_t a,
                       std::uint64_t b) const {
  return keyed_u01(plan_.seed, salt, a, b);
}

int ChurnModel::join_round(int participant) const {
  if (plan_.late_join_fraction <= 0.0) return 0;
  const auto p = static_cast<std::uint64_t>(participant);
  if (u01(kSaltJoinSelect, p, 0) >= plan_.late_join_fraction) return 0;
  return 1 + static_cast<int>(u01(kSaltJoinRound, p, 0) *
                              static_cast<double>(plan_.join_spread));
}

double ChurnModel::leave_rate(int round) const {
  if (plan_.leave_p <= 0.0) return 0.0;
  double rate = plan_.leave_p;
  if (plan_.diurnal_amplitude > 0.0 && plan_.diurnal_period >= 2) {
    // Triangle wave in [-1, 1]: trough at the period boundaries, peak
    // mid-period. Trig-free so the modulation is exactly reproducible.
    const int phase_i = round % plan_.diurnal_period;
    const double phase =
        static_cast<double>(phase_i) / static_cast<double>(plan_.diurnal_period);
    const double wave = 1.0 - 4.0 * std::abs(phase - 0.5);
    rate *= 1.0 + plan_.diurnal_amplitude * wave;
  }
  return std::min(1.0, std::max(0.0, rate));
}

bool ChurnModel::in_burst(int participant, int round) const {
  if (plan_.burst_fraction <= 0.0) return false;
  if (round < plan_.burst_round ||
      round >= plan_.burst_round + plan_.burst_away) {
    return false;
  }
  return u01(kSaltBurstSelect, static_cast<std::uint64_t>(participant), 0) <
         plan_.burst_fraction;
}

bool ChurnModel::is_live(int participant, int round) const {
  if (!active()) return true;
  const int joined = join_round(participant);
  if (round < joined) return false;
  if (in_burst(participant, round)) return false;
  if (plan_.leave_p > 0.0) {
    const auto p = static_cast<std::uint64_t>(participant);
    // A leave event at round r keeps the client away for rounds
    // [r, r + dur); scanning the last away_max rounds covers every event
    // that could still hold at `round`.
    for (int r = round - plan_.away_max + 1; r <= round; ++r) {
      if (r < joined) continue;
      if (u01(kSaltLeave, p, static_cast<std::uint64_t>(r)) >= leave_rate(r)) {
        continue;
      }
      const int dur =
          plan_.away_min +
          static_cast<int>(
              u01(kSaltAwayDur, p, static_cast<std::uint64_t>(r)) *
              static_cast<double>(plan_.away_max - plan_.away_min + 1));
      if (round < r + dur) return false;
    }
  }
  return true;
}

}  // namespace fms
