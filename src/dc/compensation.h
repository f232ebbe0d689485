// Delay-compensated updates (paper §V, Eq. 13 and Eq. 15).
//
// A straggler's update computed at round t' arrives at round t = t' + tau.
// Following DC-ASGD, the fresh gradient is approximated from the stale one
// with a diagonal Gauss-Newton correction:
//
//   h_fresh ≈ h_stale + lambda * h_stale ⊙ h_stale ⊙ (w_now − w_stale)
//
// applied to both the sub-model weight gradients (Eq. 13) and the policy
// log-prob gradients (Eq. 15). The memory pool stores the per-round
// snapshots (theta, alpha, masks) needed to evaluate the correction.
#pragma once

#include <map>
#include <vector>

#include "src/nas/supernet.h"
#include "src/rl/policy.h"

namespace fms {

// Which treatment stale updates receive (paper Fig. 8 / Table II ablation).
enum class StalePolicy {
  kHardSync,     // wait for everyone: no staleness exists ("0% staleness")
  kCompensate,   // ours: Eq. 13 + Eq. 15
  kUseStale,     // "use": apply the stale update unmodified
  kDrop,         // "throw": discard every stale update
};

const char* stale_policy_name(StalePolicy p);

// Eq. 13 applied to a flat gradient over the masked parameter subset.
std::vector<float> compensate_weight_gradient(
    const std::vector<float>& stale_grad, const std::vector<float>& fresh_w,
    const std::vector<float>& stale_w, float lambda);

// Eq. 15 applied to an alpha-shaped log-prob gradient.
AlphaPair compensate_alpha_gradient(const AlphaPair& stale_grad,
                                    const AlphaPair& alpha_now,
                                    const AlphaPair& alpha_stale,
                                    float lambda);

// Per-round snapshots the server keeps while soft synchronization is
// active (Theta, A and G memories of Algorithm 1).
struct RoundSnapshot {
  std::vector<float> theta;   // full supernet flat values
  AlphaPair alpha;
  std::vector<Mask> masks;    // per participant
};

class MemoryPool {
 public:
  explicit MemoryPool(int staleness_threshold)
      : threshold_(staleness_threshold) {}

  void save(int round, RoundSnapshot snapshot);
  // nullptr when the round was never stored or already evicted.
  const RoundSnapshot* find(int round) const;
  // Drops snapshots older than (current_round - threshold), matching
  // Algorithm 1 lines 34-35.
  void evict(int current_round);

  int threshold() const { return threshold_; }
  std::size_t size() const { return snapshots_.size(); }

  // Full-pool persistence for crash-recovery: in-flight stale updates
  // reference these rounds, so a resumed search needs the identical pool.
  // Every restored snapshot must hold `theta_size` weights and an alpha
  // over `num_edges` edges.
  void serialize(ByteWriter& w) const;
  void restore(ByteReader& r, std::size_t theta_size, int num_edges);

 private:
  template <class Io, class Self>
  static void walk(Io& io, Self& pool, std::size_t theta_size, int num_edges);

  int threshold_;
  std::map<int, RoundSnapshot> snapshots_;
};

}  // namespace fms
