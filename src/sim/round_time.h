// Event-driven round-time simulation: how long does a communication round
// take under hard vs soft synchronization?
//
// The paper motivates soft synchronization with stragglers ("the search
// process would be blocked forever if a participant loses connection")
// but reports no timing figure; this module quantifies the design choice
// (DESIGN.md §5) and also *derives* the staleness distribution a given
// soft-sync deadline induces, linking the network model to the
// delay-compensation experiments.
//
// Per participant k in round t:
//   completion_k = download(bytes_k / bw_k) + compute(flops_k / speed_k)
//                + upload(grad_bytes_k / bw_k)
// Hard sync ends the round at max_k completion_k; soft sync ends it at the
// ceil(wait_fraction * K)-th completion (both by quorum_commit in
// src/core/deadline.h, the search's own commit rule). Late participants
// deliver their update in the first later round whose end time exceeds
// their completion.
#pragma once

#include <vector>

#include "src/common/rng.h"
#include "src/net/trace.h"
#include "src/sim/devices.h"

namespace fms {

struct RoundTimeConfig {
  int participants = 10;
  int rounds = 200;
  double wait_fraction = 0.8;  // soft sync waits for this share of updates
  // Heterogeneous compute: each participant's speed is the device's
  // throughput scaled by a lognormal factor (mobile devices vary widely).
  DeviceProfile device = jetson_tx2();
  double speed_jitter_sigma = 0.5;
  // Straggler injection: with this probability a participant's round
  // slows down by slow_factor (backgrounded app, thermal throttling...).
  double straggler_p = 0.1;
  double slow_factor = 8.0;
  double flops_per_step = 5e9;     // sub-model training step
  double payload_bytes = 280000;   // sub-model download size
  double grad_bytes = 280000;      // gradient upload size
};

struct RoundTimeResult {
  double hard_total_seconds = 0.0;
  double soft_total_seconds = 0.0;
  // Histogram of delays (in rounds) that the soft-sync deadline induces;
  // index 0 = fresh, last bucket = dropped (delay > max tracked).
  std::vector<double> induced_staleness;
  double mean_hard_round = 0.0;
  double mean_soft_round = 0.0;
};

RoundTimeResult simulate_round_time(const RoundTimeConfig& cfg,
                                    const std::vector<NetEnvironment>& envs,
                                    Rng& rng);

}  // namespace fms
