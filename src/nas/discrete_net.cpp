#include "src/nas/discrete_net.h"

namespace fms {

DiscreteNet::DiscreteNet(const Genotype& genotype, const SupernetConfig& cfg,
                         Rng& rng)
    : genotype_(genotype), stack_(cfg, &genotype, rng) {
  stack_.stem->collect_params(params_);
  for (auto& c : stack_.cells) c->collect_params(params_);
  stack_.classifier->collect_params(params_);
  for (Param* p : params_) param_count_ += p->numel();
}

Tensor DiscreteNet::forward(const Tensor& x, bool train) {
  Tensor logits = stack_.forward(
      x, train, [train](Cell& cell, const Tensor& s0, const Tensor& s1) {
        return cell.forward(s0, s1, train);
      });
  has_cache_ = train;
  return logits;
}

void DiscreteNet::backward(const Tensor& grad_logits) {
  FMS_CHECK_MSG(has_cache_, "DiscreteNet::backward without train forward");
  stack_.backward(grad_logits, [](Cell& cell, const Tensor& g) {
    return cell.backward(g);
  });
  has_cache_ = false;
}

void DiscreteNet::zero_grad() {
  for (Param* p : params_) p->grad.zero();
}

}  // namespace fms
