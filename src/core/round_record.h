// RoundRecord — the per-round outcome of the federated search, both the
// paper's curves (reward, staleness, payload bytes) and the systems
// observability added by the fault/churn/robustness layers.
//
// Lives in its own header (extracted from search.h) because the write-
// ahead round journal serializes whole records: each journal frame
// carries the committed RoundRecord so recovery can verify that a
// deterministic replay reproduced the exact pre-crash outcome.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/common/serialize.h"

namespace fms {

struct RoundRecord {
  int round = 0;
  double mean_reward = 0.0;   // average training accuracy of arrived updates
  double moving_avg = 0.0;    // 50-round moving average (paper's curves)
  int arrived = 0;
  int dropped = 0;
  double max_latency_s = 0.0;
  double mean_latency_s = 0.0;
  std::size_t bytes_down = 0;
  std::size_t bytes_up = 0;
  // Staleness observability (paper Fig. 8 / Alg. 1): of the updates applied
  // this round, how many were stale (tau > 0), how late they were, and how
  // many went through the Eq. 13/15 delay compensation.
  int stale_arrived = 0;
  int compensated = 0;
  double mean_tau = 0.0;  // mean staleness of applied updates, in rounds
  int max_tau = 0;
  // Search-semantic gauges the paper's curves need.
  double alpha_entropy = 0.0;  // mean per-edge policy entropy (nats)
  double baseline = 0.0;       // REINFORCE moving-average baseline (Eq. 9)
  // Fault-tolerance observability.
  int offline = 0;       // participants crashed or dropped out this round
  int rejected = 0;      // updates rejected by screening
  int late = 0;          // updates past the quorum commit deadline
  int retransmits = 0;   // link retries performed this round
  bool partial_quorum = false;   // committed with fewer than ceil(q*K) on time
  double commit_latency_s = 0.0;  // simulated time at which the round closed
  // Robust-aggregation observability.
  int agg_clipped = 0;            // updates norm-clipped by clipped_mean
  double agg_clipped_mass = 0.0;  // L2 mass removed by that clipping
  long agg_trimmed = 0;           // coordinate values trimmed (trimmed_mean)
  int agg_rejected = 0;           // updates excluded by krum / multi_krum
  int winsorized = 0;             // rewards clamped into the Tukey band
  double screen_bound = 0.0;      // effective gradient-norm cutoff this round
  // Search-health observability (src/obs/health). Both stay at their
  // defaults when the monitor is off — the record is otherwise untouched,
  // preserving the bit-identity contract.
  int health = 0;                 // worst detector: 0 OK / 1 WARN / 2 CRIT
  std::string health_trips;       // detectors at WARN+, comma-joined
  // Churn + graceful-degradation observability. A churn-free run reports
  // live == K, joined == left == shed == 0, cohort == K, degrade_mode 0.
  int live = 0;       // clients live under the churn schedule
  int joined = 0;     // absent -> live transitions this round
  int left = 0;       // live -> absent transitions this round
  int cohort = 0;     // clients actually dispatched to
  int shed = 0;       // live clients skipped by cohort shrink (mode >= 2)
  double deadline_s = 0.0;  // timeout cap in effect (0 = uncapped)
  int degrade_mode = 0;     // ladder mode in effect during the round
  // "from->to" when the controller moved at the end of this round.
  std::string degrade_transition;

  // Journal-frame persistence, both directions from one walk over the
  // fields; the journal compares serialized records to prove replay
  // determinism, so every field above must round-trip here.
  void serialize(ByteWriter& w) const;
  void restore(ByteReader& r);

  // The health fields are windowed-monitor state that checkpoints do not
  // carry, so a replayed round cannot reproduce them; zero them before a
  // byte comparison. Purely a copy — the live record is untouched.
  RoundRecord canonical() const;

 private:
  template <class Io, class Self>
  static void walk(Io& io, Self& r);
};

}  // namespace fms
