// Tensor operations with explicit forward and backward implementations.
//
// Convolutions support stride / padding / dilation / groups, which covers
// everything the DARTS operation set needs (plain, depthwise-separable and
// dilated separable convolutions). Shapes are NCHW.
#pragma once

#include <cmath>
#include <utility>
#include <vector>

#include "src/tensor/tensor.h"

namespace fms {

// a * b + c as one fused step where the target has FMA (what the compiler
// contracts a scalar `acc += a * b` to under -O3 -march=native), else
// unfused. The conv kernels accumulate through this so that vectorizing
// them cannot change a single result bit; the test oracle uses it too.
inline float fmadd(float a, float b, float c) {
#ifdef __FP_FAST_FMAF
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
Conv2dGrads conv2d_backward(const Tensor& x, const Tensor& w,
                            const Tensor& grad_y, const Conv2dSpec& spec);

// --- pooling ---
struct MaxPoolResult {
  Tensor y;
  // Flat input offset of the argmax for each output element.
  std::vector<std::size_t> argmax;
};
MaxPoolResult maxpool2d_forward(const Tensor& x, int kernel, int stride,
                                int padding);
Tensor maxpool2d_backward(const Tensor& x, const MaxPoolResult& fwd,
                          const Tensor& grad_y);

Tensor avgpool2d_forward(const Tensor& x, int kernel, int stride, int padding);
Tensor avgpool2d_backward(const Tensor& x, const Tensor& grad_y, int kernel,
                          int stride, int padding);

// Global average pooling: [N, C, H, W] -> [N, C].
Tensor global_avgpool_forward(const Tensor& x);
Tensor global_avgpool_backward(const Tensor& x, const Tensor& grad_y);

// --- activations ---
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
