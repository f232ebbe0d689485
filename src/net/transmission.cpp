#include "src/net/transmission.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "src/common/check.h"
#include "src/net/trace.h"
#include "src/obs/profile.h"
#include "src/obs/trace_ctx.h"
#include "src/obs/work.h"

namespace fms {

std::vector<int> assign_models(const std::vector<std::size_t>& model_bytes,
                               const std::vector<double>& bandwidth_bps,
                               AssignStrategy strategy, Rng& rng) {
  FMS_SPAN("net.assign");
  const std::size_t k = bandwidth_bps.size();
  FMS_CHECK(model_bytes.size() == k && k > 0);
  std::vector<int> assignment(k);
  switch (strategy) {
    case AssignStrategy::kAverageSize:
      // Size is equalized downstream; identity pairing.
      std::iota(assignment.begin(), assignment.end(), 0);
      break;
    case AssignStrategy::kRandom: {
      std::iota(assignment.begin(), assignment.end(), 0);
      rng.shuffle(assignment);
      break;
    }
    case AssignStrategy::kAdaptive: {
      // Largest model -> fastest link.
      std::vector<int> models(k), parts(k);
      std::iota(models.begin(), models.end(), 0);
      std::iota(parts.begin(), parts.end(), 0);
      std::sort(models.begin(), models.end(), [&](int a, int b) {
        return model_bytes[static_cast<std::size_t>(a)] >
               model_bytes[static_cast<std::size_t>(b)];
      });
      std::sort(parts.begin(), parts.end(), [&](int a, int b) {
        return bandwidth_bps[static_cast<std::size_t>(a)] >
               bandwidth_bps[static_cast<std::size_t>(b)];
      });
      for (std::size_t i = 0; i < k; ++i) {
        assignment[static_cast<std::size_t>(parts[i])] = models[i];
      }
      break;
    }
  }
  return assignment;
}

LatencyStats transmission_latency(const std::vector<std::size_t>& model_bytes,
                                  const std::vector<double>& bandwidth_bps,
                                  const std::vector<int>& assignment,
                                  bool average_size) {
  const std::size_t k = bandwidth_bps.size();
  FMS_CHECK(assignment.size() == k && model_bytes.size() == k);
  FMS_OP("net.transmission", [&] {
    std::uint64_t wire = 0;
    for (const std::size_t b : model_bytes) wire += b;
    return obs::net_transmission_cost(k, wire);
  }());
  double avg_bytes = 0.0;
  for (std::size_t b : model_bytes) avg_bytes += static_cast<double>(b);
  avg_bytes /= static_cast<double>(k);

  LatencyStats stats;
  stats.per_participant.reserve(k);
  for (std::size_t p = 0; p < k; ++p) {
    if (bandwidth_bps[p] <= 0.0) {  // dead link: never divide by it
      stats.per_participant.push_back(
          std::numeric_limits<double>::infinity());
      ++stats.failed_links;
      obs::TraceContext::instance().record(static_cast<int>(p),
                                           obs::Stage::kDrop, 0.0, 0.0, 0.0,
                                           "dead_link");
      continue;
    }
    const double bytes =
        average_size
            ? avg_bytes
            : static_cast<double>(
                  model_bytes[static_cast<std::size_t>(assignment[p])]);
    const double lat = bytes * 8.0 / bandwidth_bps[p];
    stats.per_participant.push_back(lat);
    stats.max_seconds = std::max(stats.max_seconds, lat);
    stats.mean_seconds += lat;
    // The modeled download occupies [round_base, round_base + lat) on
    // this participant's track; value carries the payload bytes.
    obs::TraceContext::instance().record(static_cast<int>(p),
                                         obs::Stage::kTransmit, 0.0, lat,
                                         bytes);
  }
  const std::size_t working = k - static_cast<std::size_t>(stats.failed_links);
  if (working > 0) stats.mean_seconds /= static_cast<double>(working);
  return stats;
}

}  // namespace fms
