// Round-commit deadlines: the exact quorum/timeout close rule used by
// FederatedSearch::run_round, extracted as a pure function so its edge
// cases are unit-testable, plus the windowed-quantile adaptive deadline
// estimator that replaces a static round_timeout_s.
#pragma once

#include <cstddef>
#include <vector>

namespace fms {

class ByteReader;  // src/common/serialize.h
class ByteWriter;

// Adaptive round deadline: cap the round at `quantile` of the recent
// committed per-participant round times, stretched by `slack` and clamped
// into [floor_s, ceil_s]. Deterministic — the window holds simulated
// times, never wall clock — and checkpointable via DeadlineEstimator.
struct AdaptiveTimeoutConfig {
  bool enabled = false;
  double quantile = 0.90;
  double slack = 1.5;
  double floor_s = 0.05;  // never tighter than this
  double ceil_s = 0.0;    // 0 = no ceiling
  int window = 64;        // samples kept (per-participant, not per-round)
  int min_samples = 8;    // below this the static timeout applies
};

// Outcome of the quorum close rule for one round.
struct QuorumOutcome {
  double deadline = 0.0;         // commit tick; +inf when nothing bounds it
  std::size_t q_need = 0;        // ceil(quorum * cohort)
  std::size_t on_time = 0;       // arrivals at or before the deadline
  bool partial = false;          // on_time < q_need
  double commit_latency_s = 0.0; // finite simulated close time
};

// The round-commit rule: the round closes at the q_need-th arrival — or,
// with fewer than q_need candidates, at the last arrival — capped by
// timeout_s when positive. `arrivals` are the candidate latencies
// (unsorted, finite); `cohort` anchors the quorum count. Bit-identical to
// the inline rule this replaces (sort + comparisons only).
QuorumOutcome quorum_commit(std::vector<double> arrivals, double quorum,
                            int cohort, double timeout_s);

// Windowed-quantile deadline estimator. Fed every committed on-time
// per-participant round time; deadline() is +infinity until min_samples
// accumulate, so callers fall back to the static timeout while cold. The
// window is part of the checkpoint runtime blob: a resumed search
// computes the exact deadlines an uninterrupted one would.
class DeadlineEstimator {
 public:
  void add_sample(double seconds, int window);
  std::size_t samples() const { return window_.size(); }
  // Quantile * slack clamped into [floor_s, ceil_s]; +inf when disabled
  // or not yet warm.
  double deadline(const AdaptiveTimeoutConfig& cfg) const;

  void serialize(ByteWriter& w) const;
  void restore(ByteReader& r);

 private:
  template <class Io, class Self>
  static void walk(Io& io, Self& e);

  std::vector<double> window_;  // insertion-ordered, oldest first
};

}  // namespace fms
