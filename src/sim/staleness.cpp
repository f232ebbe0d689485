#include "src/sim/staleness.h"

#include <cmath>

#include "src/common/check.h"
#include "src/obs/trace_ctx.h"

namespace fms {

StalenessDistribution::StalenessDistribution(std::vector<double> p_tau)
    : p_tau_(std::move(p_tau)) {
  // Validate up front with precise messages: a NaN/Inf entry, a negative
  // mass, or a total above 1 would make sample() return garbage delays
  // that silently corrupt the soft-sync experiments. An *empty* vector is
  // legal and means "every update exceeds the threshold" (total loss).
  double sum = 0.0;
  for (std::size_t t = 0; t < p_tau_.size(); ++t) {
    const double p = p_tau_[t];
    FMS_CHECK_MSG(std::isfinite(p),
                  "staleness probability p_tau[" << t << "] is not finite");
    FMS_CHECK_MSG(p >= 0.0, "staleness probability p_tau[" << t << "] = " << p
                                << " is negative");
    sum += p;
  }
  FMS_CHECK_MSG(sum <= 1.0 + 1e-9,
                "staleness probabilities sum to " << sum << " > 1");
  drop_p_ = std::max(0.0, 1.0 - sum);
}

int StalenessDistribution::sample(Rng& rng) const {
  double u = rng.uniform(0.0F, 1.0F);
  for (std::size_t t = 0; t < p_tau_.size(); ++t) {
    if (u < p_tau_[t]) return static_cast<int>(t);
    u -= p_tau_[t];
  }
  return kExceedsThreshold;
}

int StalenessDistribution::sample_traced(Rng& rng, int participant) const {
  const int tau = sample(rng);
  obs::TraceContext::instance().record(
      participant, obs::Stage::kStale, 0.0, 0.0, static_cast<double>(tau),
      tau == kExceedsThreshold ? "overflow" : "");
  return tau;
}

StalenessDistribution StalenessDistribution::none() {
  return StalenessDistribution({1.0});
}

StalenessDistribution StalenessDistribution::severe() {
  return StalenessDistribution({0.3, 0.4, 0.2});
}

StalenessDistribution StalenessDistribution::slight() {
  return StalenessDistribution({0.9, 0.09, 0.009});
}

}  // namespace fms
