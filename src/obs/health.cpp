#include "src/obs/health.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

#include "src/common/check.h"
#include "src/core/search.h"
#include "src/obs/metrics.h"
#include "src/obs/json.h"
#include "src/obs/telemetry.h"

namespace fms::obs {
namespace {

// Detector slots, fixed order (reports and tests index by name, but the
// summary table prints in this order).
enum DetectorIdx : std::size_t {
  kEntropy = 0,
  kReward = 1,
  kStaleness = 2,
  kQuorum = 3,
  kScreening = 4,
  kAllocGrowth = 5,
  kChurn = 6,
  kNumDetectors = 7,
};

const char* kDetectorNames[kNumDetectors] = {
    "alpha_entropy", "reward",    "staleness",    "quorum",
    "screening",     "alloc_growth", "churn",
};

void push_window(std::vector<double>& w, double v, int window) {
  w.push_back(v);
  if (w.size() > static_cast<std::size_t>(window)) {
    w.erase(w.begin());
  }
}

double window_mean(const std::vector<double>& w) {
  if (w.empty()) return 0.0;
  return std::accumulate(w.begin(), w.end(), 0.0) /
         static_cast<double>(w.size());
}

double window_sum(const std::vector<double>& w) {
  return std::accumulate(w.begin(), w.end(), 0.0);
}

}  // namespace

const char* health_state_name(HealthState s) {
  switch (s) {
    case HealthState::kOk: return "OK";
    case HealthState::kWarn: return "WARN";
    case HealthState::kCrit: return "CRIT";
  }
  return "unknown";
}

HealthMonitor::HealthMonitor(HealthConfig cfg) : cfg_(cfg) {
  FMS_CHECK_MSG(cfg_.window > 0, "health window must be positive");
  status_.resize(kNumDetectors);
  const double warns[kNumDetectors] = {
      cfg_.entropy_warn,  cfg_.reward_drop_warn, cfg_.staleness_warn,
      cfg_.quorum_warn,   cfg_.screen_warn,      cfg_.alloc_warn_bytes_per_round,
      cfg_.churn_warn,
  };
  const double crits[kNumDetectors] = {
      cfg_.entropy_crit,  cfg_.reward_drop_crit, cfg_.staleness_crit,
      cfg_.quorum_crit,   cfg_.screen_crit,      cfg_.alloc_crit_bytes_per_round,
      cfg_.churn_crit,
  };
  for (std::size_t i = 0; i < kNumDetectors; ++i) {
    status_[i].name = kDetectorNames[i];
    status_[i].warn = warns[i];
    status_[i].crit = crits[i];
  }
}

void HealthMonitor::set_state(std::size_t idx, HealthState s, double value) {
  DetectorStatus& d = status_[idx];
  d.value = value;
  const HealthState prev = d.state;
  d.state = s;
  if (s >= HealthState::kWarn) {
    if (d.first_warn_round < 0) d.first_warn_round = rounds_;
    ++d.warn_rounds;
  }
  if (s == HealthState::kCrit) {
    if (d.first_crit_round < 0) d.first_crit_round = rounds_;
    ++d.crit_rounds;
    if (prev != HealthState::kCrit) {
      crit_transition_ = true;
      last_crit_.push_back(d.name);
    }
  }
}

HealthState HealthMonitor::observe(const RoundRecord& rec,
                                   const HealthSignal& sig) {
  crit_transition_ = false;
  last_crit_.clear();

  const int k = sig.participants > 0 ? sig.participants : 1;

  push_window(entropy_w_, rec.alpha_entropy, cfg_.window);
  push_window(moving_w_, rec.moving_avg, cfg_.window);
  push_window(tau_w_, rec.mean_tau, cfg_.window);
  const double erosion =
      rec.partial_quorum
          ? 1.0
          : static_cast<double>(rec.offline) / static_cast<double>(k);
  push_window(erosion_w_, erosion, cfg_.window);
  const double removed =
      static_cast<double>(rec.rejected + rec.agg_rejected);
  push_window(rejected_w_, removed, cfg_.window);
  push_window(processed_w_, static_cast<double>(rec.arrived) + removed,
              cfg_.window);
  push_window(winsorized_w_, static_cast<double>(rec.winsorized), cfg_.window);
  push_window(arrived_w_, static_cast<double>(rec.arrived), cfg_.window);
  if (sig.live_alloc_bytes >= 0) {
    push_window(live_bytes_w_, static_cast<double>(sig.live_alloc_bytes),
                cfg_.window);
  }
  if (sig.live >= 0) {
    push_window(churn_rate_w_,
                static_cast<double>(sig.joined + sig.left) /
                    static_cast<double>(k),
                cfg_.window);
    push_window(absent_frac_w_,
                1.0 - static_cast<double>(sig.live) / static_cast<double>(k),
                cfg_.window);
  }

  const bool armed = rounds_ >= cfg_.grace_rounds;

  // alpha-entropy collapse: a sharpened policy is the goal of the search,
  // but a window-mean below a fraction of a nat this early means every
  // edge is pinned and exploration is over.
  {
    const double v = window_mean(entropy_w_);
    HealthState s = HealthState::kOk;
    if (armed && v <= cfg_.entropy_crit) s = HealthState::kCrit;
    else if (armed && v <= cfg_.entropy_warn) s = HealthState::kWarn;
    set_state(kEntropy, s, v);
  }

  // reward stall / divergence. Non-finite anywhere in the reward chain is
  // CRIT immediately (no grace: NaN never self-heals); otherwise trip on
  // a sustained drop of the moving average below its best-so-far, or on a
  // winsorized fraction that says the robust channel is clamping a
  // significant share of arrivals.
  {
    HealthState s = HealthState::kOk;
    double v = 0.0;
    const bool nonfinite = !std::isfinite(rec.mean_reward) ||
                           !std::isfinite(rec.moving_avg) ||
                           !std::isfinite(rec.baseline);
    if (nonfinite) {
      s = HealthState::kCrit;
      v = 1.0;
    } else {
      const double moving = window_mean(moving_w_);
      if (!best_moving_set_ || moving > best_moving_) {
        best_moving_ = moving;
        best_moving_set_ = true;
      }
      const double drop = best_moving_ > 1e-9
                              ? (best_moving_ - moving) / best_moving_
                              : 0.0;
      const double arrived_sum = window_sum(arrived_w_);
      const double wfrac =
          arrived_sum > 0.0 ? window_sum(winsorized_w_) / arrived_sum : 0.0;
      v = std::max(drop, wfrac);
      if (armed) {
        if (drop >= cfg_.reward_drop_crit || wfrac >= cfg_.winsorized_crit) {
          s = HealthState::kCrit;
        } else if (drop >= cfg_.reward_drop_warn ||
                   wfrac >= cfg_.winsorized_warn) {
          s = HealthState::kWarn;
        }
      }
    }
    set_state(kReward, s, v);
  }

  // staleness inflation.
  {
    const double v = window_mean(tau_w_);
    HealthState s = HealthState::kOk;
    if (armed && v >= cfg_.staleness_crit) s = HealthState::kCrit;
    else if (armed && v >= cfg_.staleness_warn) s = HealthState::kWarn;
    set_state(kStaleness, s, v);
  }

  // quorum erosion.
  {
    const double v = window_mean(erosion_w_);
    HealthState s = HealthState::kOk;
    if (armed && v >= cfg_.quorum_crit) s = HealthState::kCrit;
    else if (armed && v >= cfg_.quorum_warn) s = HealthState::kWarn;
    set_state(kQuorum, s, v);
  }

  // screen-rejection spike.
  {
    const double processed = window_sum(processed_w_);
    const double v = processed > 0.0 ? window_sum(rejected_w_) / processed : 0.0;
    HealthState s = HealthState::kOk;
    if (armed && v >= cfg_.screen_crit) s = HealthState::kCrit;
    else if (armed && v >= cfg_.screen_warn) s = HealthState::kWarn;
    set_state(kScreening, s, v);
  }

  // allocation-ledger growth: only trips when the ledger grew every round
  // of a *full* window (monotone drift = leak; bursty growth = caches).
  {
    double v = 0.0;
    HealthState s = HealthState::kOk;
    if (live_bytes_w_.size() >= static_cast<std::size_t>(cfg_.window) &&
        cfg_.window >= 2) {
      bool monotone = true;
      for (std::size_t i = 1; i < live_bytes_w_.size(); ++i) {
        if (live_bytes_w_[i] <= live_bytes_w_[i - 1]) {
          monotone = false;
          break;
        }
      }
      if (monotone) {
        v = (live_bytes_w_.back() - live_bytes_w_.front()) /
            static_cast<double>(live_bytes_w_.size() - 1);
        if (armed && v >= cfg_.alloc_crit_bytes_per_round) {
          s = HealthState::kCrit;
        } else if (armed && v >= cfg_.alloc_warn_bytes_per_round) {
          s = HealthState::kWarn;
        }
      }
    }
    set_state(kAllocGrowth, s, v);
  }

  // churn-rate spike / live-population collapse: either a membership-
  // change storm (clients cycling in and out faster than the search can
  // absorb staleness) or a collapsed live population (a mass-leave has
  // taken a sustained bite out of the fleet). Idle until the round loop
  // reports membership.
  {
    double v = 0.0;
    HealthState s = HealthState::kOk;
    if (!churn_rate_w_.empty()) {
      v = std::max(window_mean(churn_rate_w_), window_mean(absent_frac_w_));
      if (armed && v >= cfg_.churn_crit) s = HealthState::kCrit;
      else if (armed && v >= cfg_.churn_warn) s = HealthState::kWarn;
    }
    set_state(kChurn, s, v);
  }

  HealthState round_worst = HealthState::kOk;
  for (const DetectorStatus& d : status_) {
    round_worst = std::max(round_worst, d.state);
  }
  worst_ = std::max(worst_, round_worst);
  ++rounds_;

  if (telemetry_enabled()) {
    MetricsRegistry& reg = Telemetry::instance().registry();
    reg.gauge("fms.health.state").set(static_cast<double>(round_worst));
    for (const DetectorStatus& d : status_) {
      reg.gauge("fms.health." + d.name).set(d.value);
      reg.gauge("fms.health." + d.name + ".state")
          .set(static_cast<double>(d.state));
    }
    if (round_worst >= HealthState::kWarn) {
      reg.counter("fms.health.warn_rounds").add(1);
    }
    if (round_worst == HealthState::kCrit) {
      reg.counter("fms.health.crit_rounds").add(1);
    }
  }
  return round_worst;
}

const DetectorStatus* HealthMonitor::find(const std::string& name) const {
  for (const DetectorStatus& d : status_) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

std::string HealthMonitor::to_json() const {
  std::string out;
  out.reserve(1024);
  out += "{\n  \"worst\": \"";
  out += health_state_name(worst_);
  out += "\",\n  \"rounds\": ";
  json_number(out, rounds_);
  out += ",\n  \"window\": ";
  json_number(out, cfg_.window);
  out += ",\n  \"grace_rounds\": ";
  json_number(out, cfg_.grace_rounds);
  out += ",\n  \"detectors\": [\n";
  for (std::size_t i = 0; i < status_.size(); ++i) {
    const DetectorStatus& d = status_[i];
    out += "    {\"name\": \"";
    out += json_escape(d.name);
    out += "\", \"state\": \"";
    out += health_state_name(d.state);
    out += "\", \"value\": ";
    json_number(out, d.value);
    out += ", \"warn\": ";
    json_number(out, d.warn);
    out += ", \"crit\": ";
    json_number(out, d.crit);
    out += ", \"first_warn_round\": ";
    json_number(out, d.first_warn_round);
    out += ", \"first_crit_round\": ";
    json_number(out, d.first_crit_round);
    out += ", \"warn_rounds\": ";
    json_number(out, d.warn_rounds);
    out += ", \"crit_rounds\": ";
    json_number(out, d.crit_rounds);
    out += "}";
    if (i + 1 < status_.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

void HealthMonitor::write_report(const std::string& path) const {
  std::ofstream out(path);
  FMS_CHECK_MSG(out.good(), "cannot open health report file " << path);
  out << to_json();
}

std::string HealthMonitor::summary_table() const {
  std::string out;
  out += "health: worst ";
  out += health_state_name(worst_);
  out += " over ";
  out += std::to_string(rounds_);
  out += " rounds\n";
  char line[160];
  std::snprintf(line, sizeof(line), "  %-14s %-5s %12s %12s %12s %6s\n",
                "detector", "state", "value", "warn", "crit", "trips");
  out += line;
  for (const DetectorStatus& d : status_) {
    std::snprintf(line, sizeof(line),
                  "  %-14s %-5s %12.4g %12.4g %12.4g %6d\n", d.name.c_str(),
                  health_state_name(d.state), d.value, d.warn, d.crit,
                  d.warn_rounds);
    out += line;
  }
  return out;
}

}  // namespace fms::obs
