#include "src/nn/layers.h"

#include <cmath>

#include "src/obs/work.h"

namespace fms {
namespace {

// Dims come off Tensor as int; the cost models take element counts.
inline std::size_t sz(int v) { return static_cast<std::size_t>(v); }

}  // namespace

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, Conv2dSpec spec,
               Rng& rng)
    : spec_(spec) {
  FMS_CHECK(in_channels % spec.groups == 0 && out_channels % spec.groups == 0);
  const int cin_g = in_channels / spec.groups;
  const float fan_in = static_cast<float>(cin_g * kernel * kernel);
  const float stddev = std::sqrt(2.0F / fan_in);
  w_ = Param(Tensor::randn({out_channels, cin_g, kernel, kernel}, rng, stddev));
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  obs::ScopedOp op("nn.conv_fwd");
  if (train) {
    cached_x_ = x;
    has_cache_ = true;
  } else {
    has_cache_ = false;
  }
  Tensor y = conv2d_forward(x, w_.value, spec_);
  op.add([&] {
    return obs::conv2d_fwd_cost(sz(x.dim(0)), sz(x.dim(1)), sz(x.dim(2)),
                                sz(x.dim(3)), sz(w_.value.dim(0)),
                                sz(w_.value.dim(2)), sz(w_.value.dim(3)),
                                sz(y.dim(2)), sz(y.dim(3)), sz(spec_.groups));
  });
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  FMS_CHECK_MSG(has_cache_, "Conv2d::backward without train-mode forward");
  FMS_OP("nn.conv_bwd",
         obs::conv2d_bwd_cost(
             sz(cached_x_.dim(0)), sz(cached_x_.dim(1)),
             sz(cached_x_.dim(2)), sz(cached_x_.dim(3)), sz(w_.value.dim(0)),
             sz(w_.value.dim(2)), sz(w_.value.dim(3)), sz(grad_out.dim(2)),
             sz(grad_out.dim(3)), sz(spec_.groups)));
  Conv2dGrads g = conv2d_backward(cached_x_, w_.value, grad_out, spec_);
  w_.grad += g.grad_w;
  return std::move(g.grad_x);
}

BatchNorm2d::BatchNorm2d(int channels, float eps, float momentum)
    : channels_(channels),
      eps_(eps),
      momentum_(momentum),
      gamma_(Tensor::full({channels}, 1.0F)),
      beta_(Tensor::zeros({channels})),
      running_mean_({channels}),
      running_var_(Tensor::full({channels}, 1.0F)) {}

Tensor BatchNorm2d::forward(const Tensor& x, bool train) {
  FMS_CHECK(x.ndim() == 4 && x.dim(1) == channels_);
  const Shape4 s = Shape4::of(x.shape());
  FMS_OP("nn.bn_fwd",
         obs::batchnorm_fwd_cost(sz(s.n), sz(s.c), sz(s.h), sz(s.w), train));
  const BatchNormChannels ch{gamma_.value.data(), beta_.value.data(),
                             running_mean_.data(), running_var_.data(), eps_,
                             momentum_};
  Tensor y(x.shape());
  if (!train) {
    has_cache_ = false;
    batchnorm2d_forward_eval(s, x.data(), ch, y.data());
    return y;
  }
  cached_xhat_ = Tensor(x.shape());
  cached_inv_std_.resize(static_cast<std::size_t>(s.c));
  batchnorm2d_forward_train(s, x.data(), ch, y.data(), cached_xhat_.data(),
                            cached_inv_std_.data());
  has_cache_ = true;
  return y;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  FMS_CHECK_MSG(has_cache_, "BatchNorm2d::backward without train forward");
  FMS_CHECK_MSG(grad_out.same_shape(cached_xhat_),
                "BatchNorm2d grad " << grad_out.shape_str() << ", input "
                                    << cached_xhat_.shape_str());
  const Shape4 s = Shape4::of(cached_xhat_.shape());
  FMS_OP("nn.bn_bwd",
         obs::batchnorm_bwd_cost(sz(s.n), sz(s.c), sz(s.h), sz(s.w)));
  Tensor grad_x(cached_xhat_.shape());
  batchnorm2d_backward(s, grad_out.data(), cached_xhat_.data(),
                       cached_inv_std_.data(), gamma_.value.data(),
                       gamma_.grad.data(), beta_.grad.data(), grad_x.data());
  return grad_x;
}

Tensor ReLU::forward(const Tensor& x, bool train) {
  FMS_OP("nn.relu_fwd", obs::relu_fwd_cost(x.numel(), train));
  has_cache_ = train;
  if (!train) return relu_forward(x);
  Tensor y(x.shape());
  in_shape_ = x.shape();
  mask_.resize(x.numel());
  relu_forward(x.numel(), x.data(), y.data(), mask_.data());
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  FMS_OP("nn.relu_bwd", obs::relu_bwd_cost(grad_out.numel()));
  FMS_CHECK_MSG(has_cache_, "ReLU::backward without train-mode forward");
  FMS_CHECK_MSG(grad_out.shape() == in_shape_,
                "ReLU grad " << grad_out.shape_str());
  Tensor grad_x(in_shape_);
  relu_backward(mask_.size(), mask_.data(), grad_out.data(), grad_x.data());
  return grad_x;
}

Tensor MaxPool2d::forward(const Tensor& x, bool train) {
  obs::ScopedOp op("nn.maxpool_fwd");
  MaxPoolResult res = maxpool2d_forward(x, kernel_, stride_, padding_);
  op.add([&] {
    return obs::maxpool_fwd_cost(x.numel(), res.y.numel(), sz(kernel_));
  });
  has_cache_ = train;
  if (train) {
    in_shape_ = x.shape();
    argmax_tap_ = std::move(res.tap);
  }
  return std::move(res.y);
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  FMS_CHECK_MSG(has_cache_, "MaxPool2d::backward without train forward");
  FMS_OP("nn.maxpool_bwd",
         obs::maxpool_bwd_cost(Shape4::of(in_shape_).numel(),
                               grad_out.numel()));
  return maxpool2d_backward(in_shape_, argmax_tap_, grad_out, kernel_, stride_,
                            padding_);
}

Tensor AvgPool2d::forward(const Tensor& x, bool train) {
  obs::ScopedOp op("nn.avgpool_fwd");
  has_cache_ = train;
  if (train) in_shape_ = x.shape();
  Tensor y = avgpool2d_forward(x, kernel_, stride_, padding_);
  op.add([&] {
    return obs::avgpool_fwd_cost(x.numel(), y.numel(), sz(kernel_));
  });
  return y;
}

Tensor AvgPool2d::backward(const Tensor& grad_out) {
  FMS_CHECK_MSG(has_cache_, "AvgPool2d::backward without train forward");
  FMS_OP("nn.avgpool_bwd",
         obs::avgpool_bwd_cost(Shape4::of(in_shape_).numel(),
                               grad_out.numel(), sz(kernel_)));
  return avgpool2d_backward(in_shape_, grad_out, kernel_, stride_, padding_);
}

Tensor GlobalAvgPool::forward(const Tensor& x, bool train) {
  FMS_OP("nn.gap_fwd",
         obs::global_avgpool_fwd_cost(sz(x.dim(0)), sz(x.dim(1)),
                                      sz(x.dim(2)), sz(x.dim(3))));
  has_cache_ = train;
  if (train) in_shape_ = x.shape();
  return global_avgpool_forward(x);
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  FMS_CHECK_MSG(has_cache_, "GlobalAvgPool::backward without train forward");
  const Shape4 s = Shape4::of(in_shape_);
  FMS_OP("nn.gap_bwd",
         obs::global_avgpool_bwd_cost(sz(s.n), sz(s.c), sz(s.h), sz(s.w)));
  return global_avgpool_backward(in_shape_, grad_out);
}

Linear::Linear(int in_features, int out_features, Rng& rng) {
  const float stddev = std::sqrt(2.0F / static_cast<float>(in_features));
  w_ = Param(Tensor::randn({out_features, in_features}, rng, stddev));
  b_ = Param(Tensor::zeros({out_features}));
}

Tensor Linear::forward(const Tensor& x, bool train) {
  FMS_CHECK(x.ndim() == 2 && x.dim(1) == w_.value.dim(1));
  FMS_OP("nn.linear_fwd", obs::linear_fwd_cost(sz(x.dim(0)), sz(x.dim(1)),
                                               sz(w_.value.dim(0))));
  if (train) {
    cached_x_ = x;
    has_cache_ = true;
  } else {
    has_cache_ = false;
  }
  Tensor y = matmul_nt(x, w_.value);  // [N, out]
  const int n = y.dim(0), out = y.dim(1);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < out; ++j)
      y.at2(i, j) += b_.value[static_cast<std::size_t>(j)];
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  FMS_CHECK_MSG(has_cache_, "Linear::backward without train-mode forward");
  FMS_OP("nn.linear_bwd", obs::linear_bwd_cost(sz(grad_out.dim(0)),
                                               sz(w_.value.dim(1)),
                                               sz(w_.value.dim(0))));
  // grad_w = grad_out^T [N,out] x cached_x [N,in] -> [out,in]
  w_.grad += matmul_tn(grad_out, cached_x_);
  const int n = grad_out.dim(0), out = grad_out.dim(1);
  for (int j = 0; j < out; ++j) {
    float acc = 0.0F;
    for (int i = 0; i < n; ++i) acc += grad_out.at2(i, j);
    b_.grad[static_cast<std::size_t>(j)] += acc;
  }
  return matmul(grad_out, w_.value);  // [N, in]
}

std::unique_ptr<Module> make_relu_conv_bn(int cin, int cout, int kernel,
                                          int stride, int padding, Rng& rng) {
  auto seq = std::make_unique<Sequential>();
  seq->add(std::make_unique<ReLU>());
  seq->add(std::make_unique<Conv2d>(
      cin, cout, kernel, Conv2dSpec{stride, padding, 1, 1}, rng));
  seq->add(std::make_unique<BatchNorm2d>(cout));
  return seq;
}

std::unique_ptr<Module> make_sep_conv(int channels, int kernel, int stride,
                                      Rng& rng) {
  const int pad = kernel / 2;
  auto seq = std::make_unique<Sequential>();
  seq->add(std::make_unique<ReLU>());
  seq->add(std::make_unique<Conv2d>(channels, channels, kernel,
                                    Conv2dSpec{stride, pad, 1, channels}, rng));
  seq->add(std::make_unique<Conv2d>(channels, channels, 1,
                                    Conv2dSpec{1, 0, 1, 1}, rng));
  seq->add(std::make_unique<BatchNorm2d>(channels));
  seq->add(std::make_unique<ReLU>());
  seq->add(std::make_unique<Conv2d>(channels, channels, kernel,
                                    Conv2dSpec{1, pad, 1, channels}, rng));
  seq->add(std::make_unique<Conv2d>(channels, channels, 1,
                                    Conv2dSpec{1, 0, 1, 1}, rng));
  seq->add(std::make_unique<BatchNorm2d>(channels));
  return seq;
}

std::unique_ptr<Module> make_dil_conv(int channels, int kernel, int stride,
                                      Rng& rng) {
  const int dilation = 2;
  const int pad = dilation * (kernel / 2);
  auto seq = std::make_unique<Sequential>();
  seq->add(std::make_unique<ReLU>());
  seq->add(std::make_unique<Conv2d>(
      channels, channels, kernel, Conv2dSpec{stride, pad, dilation, channels},
      rng));
  seq->add(std::make_unique<Conv2d>(channels, channels, 1,
                                    Conv2dSpec{1, 0, 1, 1}, rng));
  seq->add(std::make_unique<BatchNorm2d>(channels));
  return seq;
}

std::unique_ptr<Module> make_factorized_reduce(int cin, int cout, Rng& rng) {
  auto seq = std::make_unique<Sequential>();
  seq->add(std::make_unique<ReLU>());
  seq->add(std::make_unique<Conv2d>(cin, cout, 1, Conv2dSpec{2, 0, 1, 1}, rng));
  seq->add(std::make_unique<BatchNorm2d>(cout));
  return seq;
}

}  // namespace fms
