// Hand-designed residual network — the "pre-defined model" baseline
// (paper Tables III/IV use ResNet152 with 58.2 M parameters; here the
// configuration is scaled so it stays much larger than the searched
// models on this substrate, preserving its role of "big fixed model that
// overfits non-i.i.d. data").
#pragma once

#include <memory>

#include "src/common/config.h"
#include "src/nn/layers.h"
#include "src/nn/net.h"

namespace fms {

// Standard pre-activation-free residual block:
// out = ReLU(BN(conv(ReLU(BN(conv(x))))) + skip(x)).
class ResidualBlock : public Module {
 public:
  ResidualBlock(int in_channels, int out_channels, int stride, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;

 private:
  std::unique_ptr<Module> main_;
  std::unique_ptr<Module> skip_;  // nullptr => identity
  Tensor cached_sum_;             // pre-ReLU sum, for the output ReLU
  bool has_cache_ = false;
};

struct ResNetStyleConfig {
  int image_channels = 3;
  int num_classes = 10;
  int base_channels = 24;
  std::vector<int> stage_blocks{2, 2, 2};  // blocks per stage (stride-2 between)
};

class ResNetStyle : public TrainableNet {
 public:
  ResNetStyle(const ResNetStyleConfig& cfg, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  void backward(const Tensor& grad_logits) override;
  const std::vector<Param*>& params() override { return params_; }
  void zero_grad() override;
  std::size_t param_count() const override { return param_count_; }

 private:
  std::unique_ptr<Sequential> body_;
  std::unique_ptr<GlobalAvgPool> gap_;
  std::unique_ptr<Linear> classifier_;
  std::vector<Param*> params_;
  std::size_t param_count_ = 0;
  bool has_cache_ = false;
};

}  // namespace fms
