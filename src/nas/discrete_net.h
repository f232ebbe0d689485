// A standalone trainable network instantiated from a Genotype — what phase
// P3 retrains from scratch after the search. Unlike the supernet, it only
// materializes the chosen operations, so its parameter count is the
// "Param(M)" a deployment would actually carry.
#pragma once

#include <vector>

#include "src/common/config.h"
#include "src/nas/cell.h"
#include "src/nas/genotype.h"
#include "src/nn/net.h"

namespace fms {

class DiscreteNet : public TrainableNet {
 public:
  DiscreteNet(const Genotype& genotype, const SupernetConfig& cfg, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  void backward(const Tensor& grad_logits) override;

  const std::vector<Param*>& params() override { return params_; }
  void zero_grad() override;
  std::size_t param_count() const override { return param_count_; }
  std::size_t model_bytes() const { return 16 + 4 * param_count_; }
  const Genotype& genotype() const { return genotype_; }

 private:
  Genotype genotype_;
  CellStack stack_;
  std::vector<Param*> params_;
  std::size_t param_count_ = 0;
  bool has_cache_ = false;
};

}  // namespace fms
