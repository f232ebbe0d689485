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
  const int n = x.dim(0), c = channels_, h = x.dim(2), w = x.dim(3);
  FMS_OP("nn.bn_fwd",
         obs::batchnorm_fwd_cost(sz(n), sz(c), sz(h), sz(w), train));
  const std::size_t m = static_cast<std::size_t>(n) * h * w;
  Tensor y(x.shape());
  if (train) {
    cached_x_ = x;
    cached_xhat_ = Tensor(x.shape());
    cached_inv_std_.assign(static_cast<std::size_t>(c), 0.0F);
    for (int ic = 0; ic < c; ++ic) {
      double mean = 0.0;
      for (int in = 0; in < n; ++in)
        for (int ih = 0; ih < h; ++ih)
          for (int iw = 0; iw < w; ++iw) mean += x.at4(in, ic, ih, iw);
      mean /= static_cast<double>(m);
      double var = 0.0;
      for (int in = 0; in < n; ++in)
        for (int ih = 0; ih < h; ++ih)
          for (int iw = 0; iw < w; ++iw) {
            const double d = x.at4(in, ic, ih, iw) - mean;
            var += d * d;
          }
      var /= static_cast<double>(m);
      const float inv_std = 1.0F / std::sqrt(static_cast<float>(var) + eps_);
      cached_inv_std_[static_cast<std::size_t>(ic)] = inv_std;
      running_mean_[static_cast<std::size_t>(ic)] =
          (1.0F - momentum_) * running_mean_[static_cast<std::size_t>(ic)] +
          momentum_ * static_cast<float>(mean);
      running_var_[static_cast<std::size_t>(ic)] =
          (1.0F - momentum_) * running_var_[static_cast<std::size_t>(ic)] +
          momentum_ * static_cast<float>(var);
      const float g = gamma_.value[static_cast<std::size_t>(ic)];
      const float b = beta_.value[static_cast<std::size_t>(ic)];
      for (int in = 0; in < n; ++in)
        for (int ih = 0; ih < h; ++ih)
          for (int iw = 0; iw < w; ++iw) {
            const float xhat =
                (x.at4(in, ic, ih, iw) - static_cast<float>(mean)) * inv_std;
            cached_xhat_.at4(in, ic, ih, iw) = xhat;
            y.at4(in, ic, ih, iw) = g * xhat + b;
          }
    }
    has_cache_ = true;
  } else {
    has_cache_ = false;
    for (int ic = 0; ic < c; ++ic) {
      const float mean = running_mean_[static_cast<std::size_t>(ic)];
      const float inv_std =
          1.0F / std::sqrt(running_var_[static_cast<std::size_t>(ic)] + eps_);
      const float g = gamma_.value[static_cast<std::size_t>(ic)];
      const float b = beta_.value[static_cast<std::size_t>(ic)];
      for (int in = 0; in < n; ++in)
        for (int ih = 0; ih < h; ++ih)
          for (int iw = 0; iw < w; ++iw) {
            y.at4(in, ic, ih, iw) =
                g * (x.at4(in, ic, ih, iw) - mean) * inv_std + b;
          }
    }
  }
  return y;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  FMS_CHECK_MSG(has_cache_, "BatchNorm2d::backward without train forward");
  const Tensor& x = cached_x_;
  const int n = x.dim(0), c = channels_, h = x.dim(2), w = x.dim(3);
  FMS_OP("nn.bn_bwd", obs::batchnorm_bwd_cost(sz(n), sz(c), sz(h), sz(w)));
  const double m = static_cast<double>(n) * h * w;
  Tensor grad_x(x.shape());
  for (int ic = 0; ic < c; ++ic) {
    double sum_gy = 0.0, sum_gy_xhat = 0.0;
    for (int in = 0; in < n; ++in)
      for (int ih = 0; ih < h; ++ih)
        for (int iw = 0; iw < w; ++iw) {
          const double gy = grad_out.at4(in, ic, ih, iw);
          sum_gy += gy;
          sum_gy_xhat += gy * cached_xhat_.at4(in, ic, ih, iw);
        }
    gamma_.grad[static_cast<std::size_t>(ic)] +=
        static_cast<float>(sum_gy_xhat);
    beta_.grad[static_cast<std::size_t>(ic)] += static_cast<float>(sum_gy);
    const float g = gamma_.value[static_cast<std::size_t>(ic)];
    const float inv_std = cached_inv_std_[static_cast<std::size_t>(ic)];
    const float mean_gy = static_cast<float>(sum_gy / m);
    const float mean_gy_xhat = static_cast<float>(sum_gy_xhat / m);
    for (int in = 0; in < n; ++in)
      for (int ih = 0; ih < h; ++ih)
        for (int iw = 0; iw < w; ++iw) {
          const float gy = grad_out.at4(in, ic, ih, iw);
          const float xhat = cached_xhat_.at4(in, ic, ih, iw);
          grad_x.at4(in, ic, ih, iw) =
              g * inv_std * (gy - mean_gy - xhat * mean_gy_xhat);
        }
  }
  return grad_x;
}

Tensor ReLU::forward(const Tensor& x, bool train) {
  FMS_OP("nn.relu_fwd", obs::relu_fwd_cost(x.numel()));
  if (train) {
    cached_x_ = x;
    has_cache_ = true;
  } else {
    has_cache_ = false;
  }
  return relu_forward(x);
}

Tensor ReLU::backward(const Tensor& grad_out) {
  FMS_OP("nn.relu_bwd", obs::relu_bwd_cost(grad_out.numel()));
  FMS_CHECK_MSG(has_cache_, "ReLU::backward without train-mode forward");
  return relu_backward(cached_x_, grad_out);
}

Tensor MaxPool2d::forward(const Tensor& x, bool train) {
  obs::ScopedOp op("nn.maxpool_fwd");
  MaxPoolResult res = maxpool2d_forward(x, kernel_, stride_, padding_);
  op.add([&] {
    return obs::maxpool_fwd_cost(x.numel(), res.y.numel(), sz(kernel_));
  });
  if (train) {
    cached_x_ = x;
    cached_ = res;
    has_cache_ = true;
  } else {
    has_cache_ = false;
  }
  return res.y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  FMS_OP("nn.maxpool_bwd",
         obs::maxpool_bwd_cost(cached_x_.numel(), grad_out.numel()));
  FMS_CHECK_MSG(has_cache_, "MaxPool2d::backward without train forward");
  return maxpool2d_backward(cached_x_, cached_, grad_out);
}

Tensor AvgPool2d::forward(const Tensor& x, bool train) {
  obs::ScopedOp op("nn.avgpool_fwd");
  if (train) {
    cached_x_ = x;
    has_cache_ = true;
  } else {
    has_cache_ = false;
  }
  Tensor y = avgpool2d_forward(x, kernel_, stride_, padding_);
  op.add([&] {
    return obs::avgpool_fwd_cost(x.numel(), y.numel(), sz(kernel_));
  });
  return y;
}

Tensor AvgPool2d::backward(const Tensor& grad_out) {
  FMS_OP("nn.avgpool_bwd",
         obs::avgpool_bwd_cost(cached_x_.numel(), grad_out.numel(),
                               sz(kernel_)));
  FMS_CHECK_MSG(has_cache_, "AvgPool2d::backward without train forward");
  return avgpool2d_backward(cached_x_, grad_out, kernel_, stride_, padding_);
}

Tensor GlobalAvgPool::forward(const Tensor& x, bool train) {
  FMS_OP("nn.gap_fwd",
         obs::global_avgpool_fwd_cost(sz(x.dim(0)), sz(x.dim(1)),
                                      sz(x.dim(2)), sz(x.dim(3))));
  if (train) {
    cached_x_ = x;
    has_cache_ = true;
  } else {
    has_cache_ = false;
  }
  return global_avgpool_forward(x);
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  FMS_CHECK_MSG(has_cache_, "GlobalAvgPool::backward without train forward");
  FMS_OP("nn.gap_bwd", obs::global_avgpool_bwd_cost(
                          sz(cached_x_.dim(0)), sz(cached_x_.dim(1)),
                          sz(cached_x_.dim(2)), sz(cached_x_.dim(3))));
  return global_avgpool_backward(cached_x_, grad_out);
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
