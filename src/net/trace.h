// Synthetic 4G/LTE bandwidth traces.
//
// The paper drives its adaptive-transmission experiment (Fig. 7) with the
// 4G/LTE Bandwidth Logs of van der Hooft et al. (real-world measurements
// collected on foot, bicycle, bus, tram, train, and car). Those logs are
// not available offline, so this module generates AR(1) traces whose
// per-environment mean, variance and burstiness are calibrated to the
// published characteristics of that dataset: pedestrian links are steady
// and relatively fast, vehicular links (train especially) are slower and
// far burstier due to handovers.
#pragma once

#include <string>
#include <vector>

#include "src/common/rng.h"

namespace fms {

enum class NetEnvironment { kFoot, kBicycle, kBus, kTram, kTrain, kCar };

inline constexpr int kNumNetEnvironments = 6;

const char* net_environment_name(NetEnvironment env);

struct TraceParams {
  double mean_mbps;   // long-run mean throughput
  double stddev_mbps; // stationary standard deviation
  double rho;         // AR(1) autocorrelation ("burst length")
  double floor_mbps;  // minimum usable bandwidth
};

TraceParams trace_params(NetEnvironment env);

// A per-participant bandwidth process; one sample per communication round.
class BandwidthTrace {
 public:
  BandwidthTrace(NetEnvironment env, Rng rng);

  NetEnvironment environment() const { return env_; }

  // Bandwidth for the next round, in bits per second.
  double next_bps();

  // Crash-recovery persistence: the RNG stream and the AR(1) filter state.
  void serialize(ByteWriter& w) const;
  void restore(ByteReader& r);

 private:
  template <class Io, class Self>
  static void walk(Io& io, Self& t);

  NetEnvironment env_;
  TraceParams params_;
  Rng rng_;
  double state_mbps_;
};

// Transfer latency in seconds for `bytes` over `bps`.
inline double transfer_seconds(std::size_t bytes, double bps) {
  return static_cast<double>(bytes) * 8.0 / bps;
}

}  // namespace fms
