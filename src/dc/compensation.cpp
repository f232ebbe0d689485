#include "src/dc/compensation.h"

#include "src/obs/profile.h"
#include "src/obs/work.h"

namespace fms {

const char* stale_policy_name(StalePolicy p) {
  switch (p) {
    case StalePolicy::kHardSync: return "hard-sync";
    case StalePolicy::kCompensate: return "compensate";
    case StalePolicy::kUseStale: return "use";
    case StalePolicy::kDrop: return "throw";
  }
  return "unknown";
}

std::vector<float> compensate_weight_gradient(
    const std::vector<float>& stale_grad, const std::vector<float>& fresh_w,
    const std::vector<float>& stale_w, float lambda) {
  FMS_SPAN("dc.weight", obs::dc_compensate_cost(stale_grad.size()));
  FMS_CHECK(stale_grad.size() == fresh_w.size() &&
            stale_grad.size() == stale_w.size());
  std::vector<float> out(stale_grad.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const float h = stale_grad[i];
    out[i] = h + lambda * h * h * (fresh_w[i] - stale_w[i]);
  }
  return out;
}

AlphaPair compensate_alpha_gradient(const AlphaPair& stale_grad,
                                    const AlphaPair& alpha_now,
                                    const AlphaPair& alpha_stale,
                                    float lambda) {
  FMS_SPAN("dc.alpha",
           obs::dc_compensate_cost(
               (stale_grad.normal.size() + stale_grad.reduce.size()) *
               static_cast<std::size_t>(kNumOps)));
  FMS_CHECK(stale_grad.normal.size() == alpha_now.normal.size() &&
            stale_grad.normal.size() == alpha_stale.normal.size());
  AlphaPair out = stale_grad;
  auto apply = [lambda](AlphaTable& g, const AlphaTable& now,
                        const AlphaTable& stale) {
    for (std::size_t e = 0; e < g.size(); ++e) {
      for (int o = 0; o < kNumOps; ++o) {
        const std::size_t oi = static_cast<std::size_t>(o);
        const float h = g[e][oi];
        g[e][oi] = h + lambda * h * h * (now[e][oi] - stale[e][oi]);
      }
    }
  };
  apply(out.normal, alpha_now.normal, alpha_stale.normal);
  apply(out.reduce, alpha_now.reduce, alpha_stale.reduce);
  return out;
}

void MemoryPool::save(int round, RoundSnapshot snapshot) {
  FMS_OP("dc.pool_save", {});
  snapshots_[round] = std::move(snapshot);
}

const RoundSnapshot* MemoryPool::find(int round) const {
  auto it = snapshots_.find(round);
  return it == snapshots_.end() ? nullptr : &it->second;
}

void MemoryPool::evict(int current_round) {
  FMS_OP("dc.pool_evict", {});
  const int oldest_kept = current_round - threshold_;
  for (auto it = snapshots_.begin(); it != snapshots_.end();) {
    if (it->first < oldest_kept) {
      it = snapshots_.erase(it);
    } else {
      break;  // std::map is ordered
    }
  }
}

template <class Io, class Self>
void MemoryPool::walk(Io& io, Self& pool, std::size_t theta_size,
                      int num_edges) {
  io.each(pool.snapshots_, [&](auto& snap) {
    std::vector<float> alpha = snap.alpha.flatten();  // empty when reading
    io(snap.theta, alpha);
    if constexpr (Io::kReading) {
      FMS_CHECK_MSG(snap.theta.size() == theta_size,
                    "pool snapshot theta shape mismatch");
      snap.alpha = AlphaPair::unflatten(alpha, num_edges);
    }
    io.each(snap.masks, [&io](auto& m) { io(m.normal, m.reduce); });
  });
}

void MemoryPool::serialize(ByteWriter& w) const { walk(w, *this, 0, 0); }
void MemoryPool::restore(ByteReader& r, std::size_t theta_size,
                         int num_edges) {
  walk(r, *this, theta_size, num_edges);
}

}  // namespace fms
