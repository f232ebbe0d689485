// Tensor operations with explicit forward and backward implementations.
//
// Convolutions support stride / padding / dilation / groups, which covers
// everything the DARTS operation set needs (plain, depthwise-separable and
// dilated separable convolutions). Shapes are NCHW. They run two kernels
// over one geometry: depthwise convs with the channels in the vector
// lanes, every other conv as im2col columns into one register-tiled GEMM
// (src/tensor/ops.cpp, DESIGN.md §5.6). The max and avg pools run on the
// depthwise lane kernel too.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/tensor/tensor.h"

namespace fms {

// a * b + c as one fused step where the target has FMA (what the compiler
// contracts a scalar `acc += a * b` to under -O3 -march=native), else
// unfused. The conv and BatchNorm kernels write every multiply-add the
// scalar loops' object code fused through this, so that vectorizing them
// cannot change a single result bit; the test oracles use it too.
inline float fmadd(float a, float b, float c) {
#ifdef __FP_FAST_FMAF
  return std::fma(a, b, c);
#else
  return a * b + c;
#endif
}
inline double fmadd(double a, double b, double c) {
#ifdef __FP_FAST_FMA
  return std::fma(a, b, c);
#else
  return a * b + c;
#endif
}

struct Conv2dSpec {
  int stride = 1;
  int padding = 0;
  int dilation = 1;
  int groups = 1;
};

// Output spatial size for one dimension.
int conv_out_size(int in, int kernel, int stride, int padding, int dilation);

// y[N, Cout, Ho, Wo] = conv(x[N, Cin, H, W], w[Cout, Cin/groups, kh, kw]).
Tensor conv2d_forward(const Tensor& x, const Tensor& w, const Conv2dSpec& spec);

struct Conv2dGrads {
  Tensor grad_x;
  Tensor grad_w;
};
// grad_y must have the forward's output shape; anything else throws.
Conv2dGrads conv2d_backward(const Tensor& x, const Tensor& w,
                            const Tensor& grad_y, const Conv2dSpec& spec);

// --- elementwise layers: ReLU, BatchNorm, pooling ---
//
// Flat kernels: an NCHW extent and `const float*` in, `float*` out, no
// allocation. Each output element is computed in the same operation order
// as the scalar loops they replaced (tests/elementwise_reference.h), so
// their results are bit-identical to those loops' (DESIGN.md §5.6).

// The extent of an NCHW activation.
struct Shape4 {
  int n = 0, c = 0, h = 0, w = 0;

  // Checks that `shape` is 4-D.
  static Shape4 of(const std::vector<int>& shape);
  std::vector<int> dims() const { return {n, c, h, w}; }
  std::size_t plane() const { return static_cast<std::size_t>(h) * w; }
  std::size_t numel() const {
    return static_cast<std::size_t>(n) * c * plane();
  }
};

// A square pooling window, its side and stride at most 7. Padding is at
// most half the window, so every window holds an input element.
struct Pool2dSpec {
  int kernel = 3;
  int stride = 1;
  int padding = 1;

  // Checks the window against `in` and returns the output extent.
  Shape4 out_shape(const Shape4& in) const;
};

// y = x > 0 ? x : 0 and mask = x > 0 over `len` elements; NaN maps to 0.
void relu_forward(std::size_t len, const float* __restrict x,
                  float* __restrict y, std::uint8_t* __restrict mask);
// gx = mask ? gy : 0.
void relu_backward(std::size_t len, const std::uint8_t* __restrict mask,
                   const float* __restrict gy, float* __restrict gx);

// BatchNorm2d's per-channel arrays, each `c` long.
struct BatchNormChannels {
  const float* gamma = nullptr;
  const float* beta = nullptr;
  float* running_mean = nullptr;
  float* running_var = nullptr;
  float eps = 1e-5F;
  float momentum = 0.1F;
};
// Normalizes with the batch statistics, folds them into the running ones,
// and writes xhat (s.numel()) and inv_std (s.c) for the backward.
void batchnorm2d_forward_train(const Shape4& s, const float* __restrict x,
                               const BatchNormChannels& ch,
                               float* __restrict y, float* __restrict xhat,
                               float* __restrict inv_std);
// Normalizes with the running statistics.
void batchnorm2d_forward_eval(const Shape4& s, const float* __restrict x,
                              const BatchNormChannels& ch,
                              float* __restrict y);
// gx from gy and the train forward's xhat / inv_std; accumulates into
// gamma_grad and beta_grad.
void batchnorm2d_backward(const Shape4& s, const float* __restrict gy,
                          const float* __restrict xhat,
                          const float* __restrict inv_std,
                          const float* __restrict gamma,
                          float* __restrict gamma_grad,
                          float* __restrict beta_grad, float* __restrict gx);

// y and, per output element, its window's argmax as a tap r * kernel + c:
// the first maximum in (r, c) order, or the first NaN, which wins its
// window; a window of -inf reports its first in-bounds tap. Runs the
// depthwise conv's lane kernel with a max step.
void maxpool2d_forward(const Shape4& in, const Pool2dSpec& p,
                       const float* __restrict x, float* __restrict y,
                       std::uint8_t* __restrict tap);
// Adds each gy, in output order, to its window's argmax input; gx must
// start zeroed.
void maxpool2d_backward(const Shape4& in, const Pool2dSpec& p,
                        const std::uint8_t* __restrict tap,
                        const float* __restrict gy, float* __restrict gx);
// Window sums divided by the full window size (count_include_pad); the
// backward adds each gy / k^2 to its window's inputs in output order. Both
// run the depthwise conv's lane kernel with weight 1.
void avgpool2d_forward(const Shape4& in, const Pool2dSpec& p,
                       const float* __restrict x, float* __restrict y);
void avgpool2d_backward(const Shape4& in, const Pool2dSpec& p,
                        const float* __restrict gy, float* __restrict gx);
// [N, C, H, W] -> [N, C] plane means, and their broadcast backward.
void global_avgpool_forward(const Shape4& in, const float* __restrict x,
                            float* __restrict y);
void global_avgpool_backward(const Shape4& in, const float* __restrict gy,
                             float* __restrict gx);

// Tensor front ends: shape checks and output allocation around the
// kernels above. A backward takes the forward's input shape and checks
// grad_y against the forward's output shape.
struct MaxPoolResult {
  Tensor y;
  // Per output element, the tap r * kernel + c of its window's argmax.
  std::vector<std::uint8_t> tap;
};
MaxPoolResult maxpool2d_forward(const Tensor& x, int kernel, int stride,
                                int padding);
Tensor maxpool2d_backward(const std::vector<int>& x_shape,
                          const std::vector<std::uint8_t>& tap,
                          const Tensor& grad_y, int kernel, int stride,
                          int padding);

Tensor avgpool2d_forward(const Tensor& x, int kernel, int stride, int padding);
Tensor avgpool2d_backward(const std::vector<int>& x_shape,
                          const Tensor& grad_y, int kernel, int stride,
                          int padding);

// Global average pooling: [N, C, H, W] -> [N, C].
Tensor global_avgpool_forward(const Tensor& x);
Tensor global_avgpool_backward(const std::vector<int>& x_shape,
                               const Tensor& grad_y);

Tensor relu_forward(const Tensor& x);
Tensor relu_backward(const Tensor& x, const Tensor& grad_y);

// --- linear algebra ---
// C[m, n] = A[m, k] * B[k, n]
Tensor matmul(const Tensor& a, const Tensor& b);
// C[m, n] = A^T[k, m] * B[k, n]  (a is [k, m])
Tensor matmul_tn(const Tensor& a, const Tensor& b);
// C[m, n] = A[m, k] * B^T[n, k]  (b is [n, k])
Tensor matmul_nt(const Tensor& a, const Tensor& b);

// --- shape manipulation ---
// Concatenates NCHW tensors along the channel dimension.
Tensor concat_channels(const std::vector<Tensor>& parts);
// Splits an NCHW tensor into equal channel groups (inverse of concat).
std::vector<Tensor> split_channels(const Tensor& x, int groups);

// --- classification losses ---
// Row-wise softmax of logits [N, C].
Tensor softmax(const Tensor& logits);

struct CrossEntropyResult {
  float loss = 0.0F;          // mean NLL over the batch
  float accuracy = 0.0F;      // top-1
  Tensor grad_logits;         // d(mean loss)/d logits
  Tensor probs;
};
CrossEntropyResult cross_entropy(const Tensor& logits,
                                 const std::vector<int>& labels);

}  // namespace fms
