// Online search-health monitor: windowed detectors over the per-round
// telemetry stream, each reporting OK / WARN / CRIT.
//
// A federated search can waste its whole budget failing quietly: alpha
// entropy collapses to a degenerate architecture, the reward signal
// stalls or diverges, staleness inflates until DC compensation dominates,
// the quorum erodes under churn, screening starts rejecting a flood of
// updates, or a leak grows the allocation ledger round over round. Each
// detector watches one of those failure modes over a sliding window of
// completed rounds and trips deterministically — the statistics are pure
// functions of the (seeded) round stream, so a given run always produces
// the same health trajectory.
//
// Validation contract (tests/test_health.cpp): every fault class the
// PR 2 / PR 4 injector can schedule trips its matching detector under an
// appropriate defense config, and a clean seeded run reports zero
// WARN/CRIT. The monitor only observes — results are bit-identical with
// monitoring on or off.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fms {
struct RoundRecord;  // src/core/search.h
}

namespace fms::obs {

enum class HealthState { kOk = 0, kWarn = 1, kCrit = 2 };

const char* health_state_name(HealthState s);

// Detector thresholds. Defaults are documented in README ("Tracing &
// health monitoring" — detector threshold table) and chosen so that the
// repo's clean reference runs stay OK end to end.
struct HealthConfig {
  int window = 16;        // rounds per sliding window
  int grace_rounds = 12;  // rounds before any detector may trip

  // alpha-entropy collapse: windowed mean of the per-edge policy entropy
  // (nats). A healthy search sharpens gradually; a collapsed policy
  // pins every edge long before the budget is spent.
  double entropy_warn = 0.25;
  double entropy_crit = 0.10;

  // reward stall / divergence: CRIT outright on a non-finite reward or
  // moving average; WARN/CRIT when the moving average falls this far
  // below its best-so-far (a healthy curve is monotone-ish); WARN/CRIT
  // when this fraction of a window's arrived rewards was winsorized
  // (the robust reward channel is actively fighting lies).
  double reward_drop_warn = 0.15;
  double reward_drop_crit = 0.30;
  double winsorized_warn = 0.15;
  double winsorized_crit = 0.35;

  // staleness inflation: windowed mean of the round's mean tau (rounds).
  double staleness_warn = 1.0;
  double staleness_crit = 2.0;

  // quorum erosion: windowed mean of the per-round erosion sample
  // (1.0 for a partial-quorum commit, else offline fraction).
  double quorum_warn = 0.20;
  double quorum_crit = 0.50;

  // screen-rejection spike: windowed fraction of processed updates the
  // defenses removed — screening rejections plus estimator exclusions
  // (krum family), over everything that reached the server.
  double screen_warn = 0.08;
  double screen_crit = 0.25;

  // allocation-ledger growth: sustained live-byte drift per round over a
  // full window in which *every* round grew (cache warm-up grows in
  // bursts with flat rounds in between; a leak grows every round).
  double alloc_warn_bytes_per_round = 4096.0;
  double alloc_crit_bytes_per_round = 65536.0;

  // churn-rate spike / live-population collapse: max of the windowed mean
  // membership-change rate ((joined + left) / fleet) and the windowed
  // mean absent fraction (1 - live / fleet). Idle unless the round loop
  // reports membership (HealthSignal.live >= 0).
  double churn_warn = 0.25;
  double churn_crit = 0.45;
};

// Per-round inputs that live outside RoundRecord.
struct HealthSignal {
  // Live tensor bytes from the allocation ledger; < 0 when profiling is
  // off (the alloc detector then stays idle).
  std::int64_t live_alloc_bytes = -1;
  int participants = 0;
  // Churn membership of the round; live < 0 (the default) keeps the churn
  // detector idle for callers that predate the churn layer.
  int live = -1;
  int joined = 0;
  int left = 0;
};

struct DetectorStatus {
  std::string name;
  HealthState state = HealthState::kOk;
  double value = 0.0;  // current windowed statistic
  double warn = 0.0;   // thresholds in effect (for reports)
  double crit = 0.0;
  int first_warn_round = -1;
  int first_crit_round = -1;
  int warn_rounds = 0;  // rounds spent at WARN or worse
  int crit_rounds = 0;
};

class HealthMonitor {
 public:
  explicit HealthMonitor(HealthConfig cfg = {});

  // Feeds one completed round; returns the worst state across detectors.
  // Also emits fms.health.* gauges/counters when telemetry is enabled.
  HealthState observe(const RoundRecord& rec, const HealthSignal& sig);

  const std::vector<DetectorStatus>& detectors() const { return status_; }
  const DetectorStatus* find(const std::string& name) const;
  HealthState worst() const { return worst_; }
  // True when the last observe() upgraded some detector to CRIT (the
  // flight-recorder trigger); names_of_last_crit lists them.
  bool crit_transition() const { return crit_transition_; }
  const std::vector<std::string>& last_crit_detectors() const {
    return last_crit_;
  }
  int rounds_observed() const { return rounds_; }

  // Machine-readable report (health.json).
  std::string to_json() const;
  void write_report(const std::string& path) const;
  // Human-readable block for the CLI exit summary.
  std::string summary_table() const;

  const HealthConfig& config() const { return cfg_; }

 private:
  void set_state(std::size_t idx, HealthState s, double value);

  HealthConfig cfg_;
  std::vector<DetectorStatus> status_;
  HealthState worst_ = HealthState::kOk;
  bool crit_transition_ = false;
  std::vector<std::string> last_crit_;
  int rounds_ = 0;

  // Sliding-window state (plain deque-free rings: window <= a few dozen).
  std::vector<double> entropy_w_;
  std::vector<double> moving_w_;
  std::vector<double> tau_w_;
  std::vector<double> erosion_w_;
  std::vector<double> rejected_w_;   // rejected + agg_rejected per round
  std::vector<double> processed_w_;  // arrived + rejected + agg_rejected
  std::vector<double> winsorized_w_;
  std::vector<double> arrived_w_;
  std::vector<double> live_bytes_w_;
  std::vector<double> churn_rate_w_;    // (joined + left) / fleet per round
  std::vector<double> absent_frac_w_;   // 1 - live / fleet per round
  double best_moving_ = 0.0;
  bool best_moving_set_ = false;
};

}  // namespace fms::obs
