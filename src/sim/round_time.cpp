#include "src/sim/round_time.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/core/deadline.h"
#include "src/obs/profile.h"
#include "src/obs/telemetry.h"

namespace fms {

RoundTimeResult simulate_round_time(const RoundTimeConfig& cfg,
                                    const std::vector<NetEnvironment>& envs,
                                    Rng& rng) {
  FMS_SPAN("sim.round_time");
  const int k = cfg.participants;
  FMS_CHECK(static_cast<int>(envs.size()) == k && k > 0);
  FMS_CHECK(cfg.wait_fraction > 0.0 && cfg.wait_fraction <= 1.0);

  std::vector<BandwidthTrace> traces;
  std::vector<double> speed(static_cast<std::size_t>(k));
  for (int p = 0; p < k; ++p) {
    traces.emplace_back(envs[static_cast<std::size_t>(p)], rng.fork());
    // Lognormal heterogeneity around the device's nominal throughput.
    speed[static_cast<std::size_t>(p)] =
        cfg.device.flops_per_second *
        std::exp(rng.normal(0.0F, static_cast<float>(cfg.speed_jitter_sigma)));
  }

  constexpr int kMaxTrackedDelay = 4;

  RoundTimeResult res;
  res.induced_staleness.assign(kMaxTrackedDelay + 2, 0.0);
  double total_updates = 0.0;

  // Soft-sync bookkeeping: completion offsets of in-flight stragglers
  // relative to the current soft clock.
  std::vector<double> soft_round_ends;
  std::vector<double> pending_completions;  // absolute soft-clock times
  double soft_clock = 0.0;

  for (int t = 0; t < cfg.rounds; ++t) {
    std::vector<double> completion(static_cast<std::size_t>(k));
    for (int p = 0; p < k; ++p) {
      const double bw = traces[static_cast<std::size_t>(p)].next_bps();
      double compute = cfg.flops_per_step / speed[static_cast<std::size_t>(p)];
      if (rng.bernoulli(cfg.straggler_p)) compute *= cfg.slow_factor;
      completion[static_cast<std::size_t>(p)] =
          transfer_seconds(static_cast<std::size_t>(cfg.payload_bytes), bw) +
          compute +
          transfer_seconds(static_cast<std::size_t>(cfg.grad_bytes), bw);
    }
    // Both rounds close by the search's own commit rule: hard sync is a
    // full quorum, soft sync the ceil(wait_fraction * K)-th completion.
    res.hard_total_seconds += quorum_commit(completion, 1.0, k, 0.0).deadline;
    const double soft_round =
        quorum_commit(completion, cfg.wait_fraction, k, 0.0).deadline;
    const double round_start = soft_clock;
    soft_clock += soft_round;
    res.soft_total_seconds += soft_round;
    soft_round_ends.push_back(soft_clock);

    // Record per-update staleness: fresh if within this round, else the
    // number of later rounds that pass before the update lands.
    for (double c : completion) {
      pending_completions.push_back(round_start + c);
    }
    total_updates += k;
  }
  // Assign every update the soft-sync round in which it arrived.
  {
    std::size_t idx = 0;
    for (int t = 0; t < cfg.rounds; ++t) {
      for (int p = 0; p < k; ++p, ++idx) {
        const double done = pending_completions[idx];
        // Delay = number of round boundaries strictly before `done`,
        // counted from the sending round's end.
        int delay = 0;
        for (int r = t; r < static_cast<int>(soft_round_ends.size()); ++r) {
          if (done <= soft_round_ends[static_cast<std::size_t>(r)] + 1e-12) {
            delay = r - t;
            break;
          }
          delay = r - t + 1;
        }
        const int bucket = std::min(delay, static_cast<int>(kMaxTrackedDelay) + 1);
        res.induced_staleness[static_cast<std::size_t>(bucket)] += 1.0;
      }
    }
  }
  for (double& v : res.induced_staleness) v /= total_updates;
  res.mean_hard_round = res.hard_total_seconds / cfg.rounds;
  res.mean_soft_round = res.soft_total_seconds / cfg.rounds;
  if (obs::telemetry_enabled()) {
    auto& reg = obs::Telemetry::instance().registry();
    reg.histogram("fms.sim.hard_round_s").observe(res.mean_hard_round);
    reg.histogram("fms.sim.soft_round_s").observe(res.mean_soft_round);
  }
  return res;
}

}  // namespace fms
