// SGD with momentum, weight decay, and global-norm gradient clipping —
// the optimizer the paper uses for supernet weights (Table I).
#pragma once

#include <vector>

#include "src/nn/module.h"

namespace fms {

// Scales all gradients so their global L2 norm is at most max_norm.
// Returns the pre-clip norm.
float clip_global_norm(const std::vector<Param*>& params, float max_norm);
float clip_global_norm(std::vector<float>& flat_grad, float max_norm);

class SGD {
 public:
  struct Options {
    float lr = 0.025F;
    float momentum = 0.9F;
    float weight_decay = 0.0003F;
    float clip = 5.0F;  // <= 0 disables clipping
  };

  explicit SGD(Options opts) : opts_(opts) {}

  // Applies one update. The param list must be identical (same pointers,
  // same order) across calls; velocity buffers are allocated lazily.
  void step(const std::vector<Param*>& params);

  void set_lr(float lr) { opts_.lr = lr; }
  float lr() const { return opts_.lr; }
  const Options& options() const { return opts_; }

  // Momentum-buffer persistence for crash-recovery; empty means "no step
  // taken yet" and step() re-allocates lazily as usual. A restored
  // non-empty state must hold one buffer for each of `num_params` params.
  void serialize(ByteWriter& w) const;
  void restore(ByteReader& r, std::size_t num_params);

 private:
  template <class Io, class Self>
  static void walk(Io& io, Self& opt, std::size_t num_params);

  Options opts_;
  std::vector<std::vector<float>> velocity_;
};

}  // namespace fms
