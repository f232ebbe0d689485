#include "src/net/trace.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace fms {

const char* net_environment_name(NetEnvironment env) {
  switch (env) {
    case NetEnvironment::kFoot: return "Foot";
    case NetEnvironment::kBicycle: return "Bicycle";
    case NetEnvironment::kBus: return "Bus";
    case NetEnvironment::kTram: return "Tram";
    case NetEnvironment::kTrain: return "Train";
    case NetEnvironment::kCar: return "Car";
  }
  return "Unknown";
}

TraceParams trace_params(NetEnvironment env) {
  // Calibrated to the per-environment statistics reported for the
  // van der Hooft et al. 4G/LTE measurement campaign: pedestrian traces
  // average tens of Mbps with mild variation; vehicular traces are slower
  // on average and substantially burstier (train worst, due to handovers
  // and cuttings).
  switch (env) {
    case NetEnvironment::kFoot:    return {28.0, 6.0, 0.80, 2.0};
    case NetEnvironment::kBicycle: return {24.0, 8.0, 0.80, 1.5};
    case NetEnvironment::kBus:     return {18.0, 10.0, 0.85, 0.8};
    case NetEnvironment::kTram:    return {20.0, 9.0, 0.85, 0.8};
    case NetEnvironment::kTrain:   return {11.0, 9.0, 0.90, 0.3};
    case NetEnvironment::kCar:     return {15.0, 10.0, 0.88, 0.5};
  }
  FMS_CHECK_MSG(false, "unknown environment");
  return {};
}

BandwidthTrace::BandwidthTrace(NetEnvironment env, Rng rng)
    : env_(env), params_(trace_params(env)), rng_(rng),
      state_mbps_(params_.mean_mbps) {
  // Start from the stationary distribution.
  state_mbps_ = std::max(
      params_.floor_mbps,
      params_.mean_mbps + rng_.normal(0.0F, static_cast<float>(params_.stddev_mbps)));
}

template <class Io, class Self>
void BandwidthTrace::walk(Io& io, Self& t) {
  io(t.rng_, t.state_mbps_);
}

void BandwidthTrace::serialize(ByteWriter& w) const { walk(w, *this); }
void BandwidthTrace::restore(ByteReader& r) { walk(r, *this); }

double BandwidthTrace::next_bps() {
  // AR(1) with stationary variance stddev^2: innovations scaled by
  // sqrt(1 - rho^2).
  const double innovation_std =
      params_.stddev_mbps * std::sqrt(1.0 - params_.rho * params_.rho);
  state_mbps_ = params_.mean_mbps +
                params_.rho * (state_mbps_ - params_.mean_mbps) +
                rng_.normal(0.0F, static_cast<float>(innovation_std));
  state_mbps_ = std::max(state_mbps_, params_.floor_mbps);
  return state_mbps_ * 1e6;
}

}  // namespace fms
