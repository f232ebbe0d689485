#include "src/core/round_record.h"

namespace fms {

template <class Io, class Self>
void RoundRecord::walk(Io& io, Self& r) {
  io(r.round, r.mean_reward, r.moving_avg, r.arrived, r.dropped,
     r.max_latency_s, r.mean_latency_s, as<std::uint64_t>(r.bytes_down),
     as<std::uint64_t>(r.bytes_up), r.stale_arrived, r.compensated,
     r.mean_tau, r.max_tau, r.alpha_entropy, r.baseline, r.offline,
     r.rejected, r.late, r.retransmits, as<std::uint8_t>(r.partial_quorum),
     r.commit_latency_s, r.agg_clipped, r.agg_clipped_mass,
     as<std::int64_t>(r.agg_trimmed), r.agg_rejected, r.winsorized,
     r.screen_bound, r.health, r.health_trips, r.live, r.joined, r.left,
     r.cohort, r.shed, r.deadline_s, r.degrade_mode, r.degrade_transition);
}

void RoundRecord::serialize(ByteWriter& w) const { walk(w, *this); }
void RoundRecord::restore(ByteReader& r) { walk(r, *this); }

RoundRecord RoundRecord::canonical() const {
  RoundRecord c = *this;
  c.health = 0;
  c.health_trips.clear();
  return c;
}

}  // namespace fms
