// Adaptive transmission (paper §IV "Adaptive transmission", Fig. 7).
//
// Sampled sub-models differ in size; participants differ in measured
// bandwidth. The adaptive strategy sorts sub-models by size and
// participants by data rate and pairs the largest model with the fastest
// link, minimizing the round's maximum download latency. Baselines:
// sending average-sized models to everyone (what FedNAS/EvoFedNAS-style
// schemes do) and assigning sampled models at random.
#pragma once

#include <cstddef>
#include <vector>

#include "src/common/rng.h"

namespace fms {

enum class AssignStrategy { kAdaptive, kAverageSize, kRandom };

// assignment[k] = index of the model sent to participant k.
std::vector<int> assign_models(const std::vector<std::size_t>& model_bytes,
                               const std::vector<double>& bandwidth_bps,
                               AssignStrategy strategy, Rng& rng);

struct LatencyStats {
  double max_seconds = 0.0;   // over working links only
  double mean_seconds = 0.0;  // over working links only
  // Per-participant download latency; infinity marks a failed link
  // (zero/negative bandwidth) so callers can treat it as a fault instead
  // of silently folding inf/NaN into the round statistics.
  std::vector<double> per_participant;
  int failed_links = 0;
};

// Download latencies implied by an assignment. For kAverageSize the actual
// model sizes are replaced by their mean (all participants receive
// equal-size payloads). A participant with zero or negative bandwidth is a
// failed link: its latency is infinite and it is excluded from the
// max/mean aggregates, which stay finite.
LatencyStats transmission_latency(const std::vector<std::size_t>& model_bytes,
                                  const std::vector<double>& bandwidth_bps,
                                  const std::vector<int>& assignment,
                                  bool average_size);

}  // namespace fms
