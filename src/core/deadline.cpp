#include "src/core/deadline.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/serialize.h"

namespace fms {

QuorumOutcome quorum_commit(std::vector<double> arrivals, double quorum,
                            int cohort, double timeout_s) {
  QuorumOutcome out;
  out.deadline = std::numeric_limits<double>::infinity();
  std::sort(arrivals.begin(), arrivals.end());
  out.q_need = static_cast<std::size_t>(
      std::ceil(quorum * static_cast<double>(cohort)));
  if (!arrivals.empty()) {
    out.deadline = arrivals.size() >= out.q_need && out.q_need > 0
                       ? arrivals[out.q_need - 1]
                       : arrivals.back();
  }
  if (timeout_s > 0.0) {
    out.deadline = std::min(out.deadline, timeout_s);
  }
  for (double c : arrivals) {
    if (c <= out.deadline + 1e-12) ++out.on_time;
  }
  out.partial = out.on_time < out.q_need;
  out.commit_latency_s = std::isfinite(out.deadline)
                             ? out.deadline
                             : (arrivals.empty() ? 0.0 : arrivals.back());
  return out;
}

void DeadlineEstimator::add_sample(double seconds, int window) {
  if (window <= 0) return;
  window_.push_back(seconds);
  if (window_.size() > static_cast<std::size_t>(window)) {
    window_.erase(window_.begin(),
                  window_.begin() +
                      static_cast<std::ptrdiff_t>(window_.size() -
                                                  static_cast<std::size_t>(window)));
  }
}

double DeadlineEstimator::deadline(const AdaptiveTimeoutConfig& cfg) const {
  if (!cfg.enabled ||
      window_.size() < static_cast<std::size_t>(std::max(1, cfg.min_samples))) {
    return std::numeric_limits<double>::infinity();
  }
  std::vector<double> sorted = window_;
  std::sort(sorted.begin(), sorted.end());
  const double q = std::min(1.0, std::max(0.0, cfg.quantile));
  const auto n = sorted.size();
  std::size_t idx = 0;
  if (q > 0.0) {
    idx = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    idx = idx > 0 ? idx - 1 : 0;
  }
  idx = std::min(idx, n - 1);
  double d = sorted[idx] * cfg.slack;
  if (cfg.floor_s > 0.0) d = std::max(d, cfg.floor_s);
  if (cfg.ceil_s > 0.0) d = std::min(d, cfg.ceil_s);
  return d;
}

template <class Io, class Self>
void DeadlineEstimator::walk(Io& io, Self& e) {
  io(e.window_);
}

void DeadlineEstimator::serialize(ByteWriter& w) const { walk(w, *this); }
void DeadlineEstimator::restore(ByteReader& r) { walk(r, *this); }

}  // namespace fms
