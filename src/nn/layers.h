// Concrete layers. All follow the DARTS conventions: convolutions are
// bias-free (a BatchNorm follows every conv), pooling windows are 3x3.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/nn/module.h"
#include "src/tensor/ops.h"

namespace fms {

class Conv2d : public Module {
 public:
  // He-normal initialized conv. groups == in_channels gives depthwise.
  Conv2d(int in_channels, int out_channels, int kernel, Conv2dSpec spec,
         Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override { out.push_back(&w_); }
  std::unique_ptr<Module> clone() const override {
    return std::make_unique<Conv2d>(*this);
  }

  const Conv2dSpec& spec() const { return spec_; }

 private:
  Conv2dSpec spec_;
  Param w_;
  Tensor cached_x_;
  bool has_cache_ = false;
};

class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(int channels, float eps = 1e-5F, float momentum = 0.1F);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override {
    out.push_back(&gamma_);
    out.push_back(&beta_);
  }
  std::unique_ptr<Module> clone() const override {
    return std::make_unique<BatchNorm2d>(*this);
  }

 private:
  int channels_;
  float eps_;
  float momentum_;
  Param gamma_;
  Param beta_;
  // Running statistics (not learnable, but part of the model state).
  Tensor running_mean_;
  Tensor running_var_;
  // Backward caches: the normalized input (which carries the input's
  // shape) and the batch's per-channel 1 / std.
  Tensor cached_xhat_;
  std::vector<float> cached_inv_std_;
  bool has_cache_ = false;
};

class ReLU : public Module {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::unique_ptr<Module> clone() const override {
    return std::make_unique<ReLU>(*this);
  }

 private:
  // x > 0 per element of the last train-mode input, and its shape.
  std::vector<std::uint8_t> mask_;
  std::vector<int> in_shape_;
  bool has_cache_ = false;
};

class MaxPool2d : public Module {
 public:
  MaxPool2d(int kernel, int stride, int padding)
      : kernel_(kernel), stride_(stride), padding_(padding) {}

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::unique_ptr<Module> clone() const override {
    return std::make_unique<MaxPool2d>(kernel_, stride_, padding_);
  }

 private:
  int kernel_, stride_, padding_;
  std::vector<int> in_shape_;
  std::vector<std::uint8_t> argmax_tap_;
  bool has_cache_ = false;
};

class AvgPool2d : public Module {
 public:
  AvgPool2d(int kernel, int stride, int padding)
      : kernel_(kernel), stride_(stride), padding_(padding) {}

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::unique_ptr<Module> clone() const override {
    return std::make_unique<AvgPool2d>(kernel_, stride_, padding_);
  }

 private:
  int kernel_, stride_, padding_;
  std::vector<int> in_shape_;
  bool has_cache_ = false;
};

class Identity : public Module {
 public:
  Tensor forward(const Tensor& x, bool /*train*/) override { return x; }
  Tensor backward(const Tensor& grad_out) override { return grad_out; }
  std::unique_ptr<Module> clone() const override {
    return std::make_unique<Identity>();
  }
};

class GlobalAvgPool : public Module {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::unique_ptr<Module> clone() const override {
    return std::make_unique<GlobalAvgPool>(*this);
  }

 private:
  std::vector<int> in_shape_;
  bool has_cache_ = false;
};

class Linear : public Module {
 public:
  Linear(int in_features, int out_features, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override {
    out.push_back(&w_);
    out.push_back(&b_);
  }
  std::unique_ptr<Module> clone() const override {
    return std::make_unique<Linear>(*this);
  }

 private:
  Param w_;  // [out, in]
  Param b_;  // [out]
  Tensor cached_x_;
  bool has_cache_ = false;
};

// --- DARTS composite operations (used by the NAS search space) ---

// ReLU -> 1x1 conv -> BN. Cell input preprocessing and part of ops.
std::unique_ptr<Module> make_relu_conv_bn(int cin, int cout, int kernel,
                                          int stride, int padding, Rng& rng);

// Depthwise-separable conv applied twice, DARTS-style:
// [ReLU, dw kxk stride s, pw 1x1, BN, ReLU, dw kxk stride 1, pw 1x1, BN].
std::unique_ptr<Module> make_sep_conv(int channels, int kernel, int stride,
                                      Rng& rng);

// Dilated separable conv: [ReLU, dw kxk dilation 2 stride s, pw 1x1, BN].
std::unique_ptr<Module> make_dil_conv(int channels, int kernel, int stride,
                                      Rng& rng);

// Spatial reduction preserving channel count: ReLU -> 1x1 conv stride 2 ->
// BN. Used where identity/skip needs a stride (DARTS FactorizedReduce).
std::unique_ptr<Module> make_factorized_reduce(int cin, int cout, Rng& rng);

}  // namespace fms
