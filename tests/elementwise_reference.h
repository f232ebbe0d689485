// The scalar ReLU, BatchNorm2d, max/avg pool and global-average-pool loops
// the library ran before its raw-pointer kernels, kept as the test oracle.
// Each multiply-add that those loops' object code fused (under -O3
// -march=native) is written out with the library's fms::fmadd, so on any
// build the kernels must reproduce these results bit for bit:
//   BN train  y = fma(xhat, gamma, beta); the variance sums fma(d, d, var)
//             in double; running stats fma(1 - momentum, stat,
//             momentum * batch_stat);
//   BN eval   y = fma(gamma * (x - mean), inv_std, beta);
//   BN bwd    grad_x = gamma * inv_std * fma(-xhat, mean(gy * xhat),
//             gy - mean(gy)).
// The max pool lets a NaN win its window (a NaN is never hidden); among
// numbers the first maximum in (r, c) order still wins.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"

namespace fms::ref {

inline Tensor relu_forward(const Tensor& x) {
  Tensor y = x;
  for (std::size_t i = 0; i < y.numel(); ++i) y[i] = std::max(0.0F, y[i]);
  return y;
}

inline Tensor relu_backward(const Tensor& x, const Tensor& grad_y) {
  FMS_CHECK(x.same_shape(grad_y));
  Tensor grad_x(x.shape());
  for (std::size_t i = 0; i < x.numel(); ++i) {
    grad_x[i] = x[i] > 0.0F ? grad_y[i] : 0.0F;
  }
  return grad_x;
}

// BatchNorm2d's learnable and running per-channel state.
struct BatchNormState {
  std::vector<float> gamma, beta, running_mean, running_var;
  float eps = 1e-5F;
  float momentum = 0.1F;
};

struct BatchNormTrain {
  Tensor y;
  Tensor xhat;
  std::vector<float> inv_std;
};

// Updates st's running statistics.
inline BatchNormTrain batchnorm_forward_train(const Tensor& x,
                                              BatchNormState& st) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t m = static_cast<std::size_t>(n) * h * w;
  BatchNormTrain out{Tensor(x.shape()), Tensor(x.shape()),
                     std::vector<float>(static_cast<std::size_t>(c))};
  for (int ic = 0; ic < c; ++ic) {
    const auto ci = static_cast<std::size_t>(ic);
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
          var = fmadd(d, d, var);
        }
    var /= static_cast<double>(m);
    const float inv_std = 1.0F / std::sqrt(static_cast<float>(var) + st.eps);
    out.inv_std[ci] = inv_std;
    st.running_mean[ci] = fmadd(1.0F - st.momentum, st.running_mean[ci],
                                st.momentum * static_cast<float>(mean));
    st.running_var[ci] = fmadd(1.0F - st.momentum, st.running_var[ci],
                               st.momentum * static_cast<float>(var));
    const float g = st.gamma[ci];
    const float b = st.beta[ci];
    for (int in = 0; in < n; ++in)
      for (int ih = 0; ih < h; ++ih)
        for (int iw = 0; iw < w; ++iw) {
          const float xhat =
              (x.at4(in, ic, ih, iw) - static_cast<float>(mean)) * inv_std;
          out.xhat.at4(in, ic, ih, iw) = xhat;
          out.y.at4(in, ic, ih, iw) = fmadd(g, xhat, b);
        }
  }
  return out;
}

inline Tensor batchnorm_forward_eval(const Tensor& x,
                                     const BatchNormState& st) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor y(x.shape());
  for (int ic = 0; ic < c; ++ic) {
    const auto ci = static_cast<std::size_t>(ic);
    const float mean = st.running_mean[ci];
    const float inv_std = 1.0F / std::sqrt(st.running_var[ci] + st.eps);
    const float g = st.gamma[ci];
    const float b = st.beta[ci];
    for (int in = 0; in < n; ++in)
      for (int ih = 0; ih < h; ++ih)
        for (int iw = 0; iw < w; ++iw) {
          y.at4(in, ic, ih, iw) =
              fmadd(g * (x.at4(in, ic, ih, iw) - mean), inv_std, b);
        }
  }
  return y;
}

// Accumulates into gamma_grad and beta_grad.
inline Tensor batchnorm_backward(const Tensor& grad_out,
                                 const BatchNormTrain& fwd,
                                 const std::vector<float>& gamma,
                                 std::vector<float>& gamma_grad,
                                 std::vector<float>& beta_grad) {
  const Tensor& xh = fwd.xhat;
  const int n = xh.dim(0), c = xh.dim(1), h = xh.dim(2), w = xh.dim(3);
  const double m = static_cast<double>(n) * h * w;
  Tensor grad_x(xh.shape());
  for (int ic = 0; ic < c; ++ic) {
    const auto ci = static_cast<std::size_t>(ic);
    double sum_gy = 0.0, sum_gy_xhat = 0.0;
    for (int in = 0; in < n; ++in)
      for (int ih = 0; ih < h; ++ih)
        for (int iw = 0; iw < w; ++iw) {
          const double gy = grad_out.at4(in, ic, ih, iw);
          sum_gy += gy;
          sum_gy_xhat = fmadd(gy, static_cast<double>(xh.at4(in, ic, ih, iw)),
                              sum_gy_xhat);
        }
    gamma_grad[ci] += static_cast<float>(sum_gy_xhat);
    beta_grad[ci] += static_cast<float>(sum_gy);
    const float scale = gamma[ci] * fwd.inv_std[ci];
    const float mean_gy = static_cast<float>(sum_gy / m);
    const float mean_gy_xhat = static_cast<float>(sum_gy_xhat / m);
    for (int in = 0; in < n; ++in)
      for (int ih = 0; ih < h; ++ih)
        for (int iw = 0; iw < w; ++iw) {
          const float gy = grad_out.at4(in, ic, ih, iw);
          const float xhat = xh.at4(in, ic, ih, iw);
          grad_x.at4(in, ic, ih, iw) =
              scale * fmadd(-xhat, mean_gy_xhat, gy - mean_gy);
        }
  }
  return grad_x;
}

struct MaxPoolRef {
  Tensor y;
  // Flat input offset of the argmax for each output element.
  std::vector<std::size_t> argmax;
};

inline MaxPoolRef maxpool2d_forward(const Tensor& x, int kernel, int stride,
                                    int padding) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int ho = conv_out_size(h, kernel, stride, padding, 1);
  const int wo = conv_out_size(w, kernel, stride, padding, 1);
  MaxPoolRef res{Tensor({n, c, ho, wo}), {}};
  res.argmax.resize(res.y.numel());
  std::size_t oi = 0;
  for (int in = 0; in < n; ++in) {
    for (int ic = 0; ic < c; ++ic) {
      for (int oh = 0; oh < ho; ++oh) {
        for (int ow = 0; ow < wo; ++ow, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          bool found = false;
          for (int r = 0; r < kernel; ++r) {
            const int ih = oh * stride - padding + r;
            if (ih < 0 || ih >= h) continue;
            for (int cc = 0; cc < kernel; ++cc) {
              const int iw = ow * stride - padding + cc;
              if (iw < 0 || iw >= w) continue;
              const float v = x.at4(in, ic, ih, iw);
              // A NaN wins its window: it beats a number and is not
              // replaced.
              if (!found || (!(v <= best) && !std::isnan(best))) {
                best = v;
                best_idx = x.offset4(in, ic, ih, iw);
                found = true;
              }
            }
          }
          res.y[oi] = found ? best : 0.0F;
          res.argmax[oi] = best_idx;
        }
      }
    }
  }
  return res;
}

inline Tensor maxpool2d_backward(const std::vector<int>& x_shape,
                                 const MaxPoolRef& fwd, const Tensor& grad_y) {
  Tensor grad_x(x_shape);
  FMS_CHECK(grad_y.numel() == fwd.argmax.size());
  for (std::size_t i = 0; i < fwd.argmax.size(); ++i) {
    grad_x[fwd.argmax[i]] += grad_y[i];
  }
  return grad_x;
}

inline Tensor avgpool2d_forward(const Tensor& x, int kernel, int stride,
                                int padding) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int ho = conv_out_size(h, kernel, stride, padding, 1);
  const int wo = conv_out_size(w, kernel, stride, padding, 1);
  Tensor y({n, c, ho, wo});
  const float inv = 1.0F / static_cast<float>(kernel * kernel);
  for (int in = 0; in < n; ++in) {
    for (int ic = 0; ic < c; ++ic) {
      for (int oh = 0; oh < ho; ++oh) {
        for (int ow = 0; ow < wo; ++ow) {
          float acc = 0.0F;
          for (int r = 0; r < kernel; ++r) {
            const int ih = oh * stride - padding + r;
            if (ih < 0 || ih >= h) continue;
            for (int cc = 0; cc < kernel; ++cc) {
              const int iw = ow * stride - padding + cc;
              if (iw < 0 || iw >= w) continue;
              acc += x.at4(in, ic, ih, iw);
            }
          }
          y.at4(in, ic, oh, ow) = acc * inv;
        }
      }
    }
  }
  return y;
}

inline Tensor avgpool2d_backward(const std::vector<int>& x_shape,
                                 const Tensor& grad_y, int kernel, int stride,
                                 int padding) {
  Tensor grad_x(x_shape);
  const int n = grad_x.dim(0), c = grad_x.dim(1), h = grad_x.dim(2),
            w = grad_x.dim(3);
  const int ho = grad_y.dim(2), wo = grad_y.dim(3);
  const float inv = 1.0F / static_cast<float>(kernel * kernel);
  for (int in = 0; in < n; ++in) {
    for (int ic = 0; ic < c; ++ic) {
      for (int oh = 0; oh < ho; ++oh) {
        for (int ow = 0; ow < wo; ++ow) {
          const float gy = grad_y.at4(in, ic, oh, ow) * inv;
          for (int r = 0; r < kernel; ++r) {
            const int ih = oh * stride - padding + r;
            if (ih < 0 || ih >= h) continue;
            for (int cc = 0; cc < kernel; ++cc) {
              const int iw = ow * stride - padding + cc;
              if (iw < 0 || iw >= w) continue;
              grad_x.at4(in, ic, ih, iw) += gy;
            }
          }
        }
      }
    }
  }
  return grad_x;
}

inline Tensor global_avgpool_forward(const Tensor& x) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor y({n, c});
  const float inv = 1.0F / static_cast<float>(h * w);
  for (int in = 0; in < n; ++in) {
    for (int ic = 0; ic < c; ++ic) {
      float acc = 0.0F;
      for (int ih = 0; ih < h; ++ih)
        for (int iw = 0; iw < w; ++iw) acc += x.at4(in, ic, ih, iw);
      y.at2(in, ic) = acc * inv;
    }
  }
  return y;
}

inline Tensor global_avgpool_backward(const std::vector<int>& x_shape,
                                      const Tensor& grad_y) {
  Tensor grad_x(x_shape);
  const int n = grad_x.dim(0), c = grad_x.dim(1), h = grad_x.dim(2),
            w = grad_x.dim(3);
  const float inv = 1.0F / static_cast<float>(h * w);
  for (int in = 0; in < n; ++in) {
    for (int ic = 0; ic < c; ++ic) {
      const float gy = grad_y.at2(in, ic) * inv;
      for (int ih = 0; ih < h; ++ih)
        for (int iw = 0; iw < w; ++iw) grad_x.at4(in, ic, ih, iw) = gy;
    }
  }
  return grad_x;
}

}  // namespace fms::ref
