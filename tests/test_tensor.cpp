// Unit tests for the tensor substrate: shapes, arithmetic, conv/pool
// forward results on hand-computed cases, and gradient checks against
// central finite differences.
#include <cmath>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"

namespace fms {
namespace {

TEST(Tensor, ConstructionAndShape) {
  Tensor t({2, 3, 4, 5});
  EXPECT_EQ(t.ndim(), 4);
  EXPECT_EQ(t.numel(), 120u);
  EXPECT_EQ(t.dim(2), 4);
  EXPECT_FLOAT_EQ(t.sum(), 0.0F);
}

TEST(Tensor, FillAndArithmetic) {
  Tensor a = Tensor::full({2, 2}, 1.5F);
  Tensor b = Tensor::full({2, 2}, 0.5F);
  Tensor c = a + b;
  EXPECT_FLOAT_EQ(c.sum(), 8.0F);
  c -= a;
  EXPECT_FLOAT_EQ(c.sum(), 2.0F);
  c *= 4.0F;
  EXPECT_FLOAT_EQ(c.sum(), 8.0F);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a({2, 2});
  Tensor b({2, 3});
  EXPECT_THROW(a += b, CheckError);
}

TEST(Tensor, ReshapePreservesData) {
  Rng rng(1);
  Tensor a = Tensor::randn({2, 6}, rng);
  Tensor b = a.reshaped({3, 4});
  EXPECT_EQ(b.dim(0), 3);
  EXPECT_FLOAT_EQ(a.sum(), b.sum());
  EXPECT_THROW(a.reshaped({5, 5}), CheckError);
}

TEST(Tensor, L2Norm) {
  Tensor a({2}, std::vector<float>{3.0F, 4.0F});
  EXPECT_FLOAT_EQ(a.l2_norm(), 5.0F);
}

TEST(Ops, ConvOutSize) {
  EXPECT_EQ(conv_out_size(16, 3, 1, 1, 1), 16);
  EXPECT_EQ(conv_out_size(16, 3, 2, 1, 1), 8);
  EXPECT_EQ(conv_out_size(16, 3, 1, 2, 2), 16);  // dilated, same-pad
  EXPECT_EQ(conv_out_size(16, 1, 2, 0, 1), 8);
}

TEST(Ops, Conv2dIdentityKernel) {
  // 1x1 kernel with weight 1.0 copies the input.
  Rng rng(2);
  Tensor x = Tensor::randn({1, 1, 4, 4}, rng);
  Tensor w = Tensor::full({1, 1, 1, 1}, 1.0F);
  Tensor y = conv2d_forward(x, w, Conv2dSpec{});
  ASSERT_EQ(y.numel(), x.numel());
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Ops, Conv2dHandComputed3x3) {
  // All-ones 2x2 input, all-ones 3x3 kernel, padding 1: each output counts
  // how many input pixels its window covers.
  Tensor x = Tensor::full({1, 1, 2, 2}, 1.0F);
  Tensor w = Tensor::full({1, 1, 3, 3}, 1.0F);
  Tensor y = conv2d_forward(x, w, Conv2dSpec{1, 1, 1, 1});
  ASSERT_EQ(y.dim(2), 2);
  EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 4.0F);
  EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 1), 4.0F);
  EXPECT_FLOAT_EQ(y.at4(0, 0, 1, 0), 4.0F);
  EXPECT_FLOAT_EQ(y.at4(0, 0, 1, 1), 4.0F);
}

TEST(Ops, Conv2dGroupsDepthwise) {
  // Depthwise conv: each channel convolved independently.
  Tensor x({1, 2, 1, 1}, std::vector<float>{2.0F, 3.0F});
  Tensor w({2, 1, 1, 1}, std::vector<float>{10.0F, 100.0F});
  Tensor y = conv2d_forward(x, w, Conv2dSpec{1, 0, 1, 2});
  EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 20.0F);
  EXPECT_FLOAT_EQ(y.at4(0, 1, 0, 0), 300.0F);
}

// Central finite-difference gradient check for conv2d.
void check_conv_grads(const Conv2dSpec& spec, int cin, int cout, int k,
                      int hw) {
  Rng rng(7);
  Tensor x = Tensor::randn({2, cin, hw, hw}, rng);
  Tensor w = Tensor::randn({cout, cin / spec.groups, k, k}, rng, 0.5F);
  Tensor y = conv2d_forward(x, w, spec);
  // Scalar objective: sum of conv output weighted by a fixed random tensor.
  Tensor gy = Tensor::randn(y.shape(), rng);
  Conv2dGrads grads = conv2d_backward(x, w, gy, spec);

  auto objective = [&](const Tensor& xx, const Tensor& ww) {
    Tensor yy = conv2d_forward(xx, ww, spec);
    double s = 0.0;
    for (std::size_t i = 0; i < yy.numel(); ++i) s += yy[i] * gy[i];
    return s;
  };

  const float eps = 1e-3F;
  for (std::size_t i = 0; i < std::min<std::size_t>(x.numel(), 20); ++i) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double fd = (objective(xp, w) - objective(xm, w)) / (2.0 * eps);
    EXPECT_NEAR(grads.grad_x[i], fd, 2e-2) << "grad_x at " << i;
  }
  for (std::size_t i = 0; i < std::min<std::size_t>(w.numel(), 20); ++i) {
    Tensor wp = w, wm = w;
    wp[i] += eps;
    wm[i] -= eps;
    const double fd = (objective(x, wp) - objective(x, wm)) / (2.0 * eps);
    EXPECT_NEAR(grads.grad_w[i], fd, 2e-2) << "grad_w at " << i;
  }
}

TEST(Ops, Conv2dGradCheckPlain) {
  check_conv_grads(Conv2dSpec{1, 1, 1, 1}, 2, 3, 3, 5);
}

TEST(Ops, Conv2dGradCheckStride2) {
  check_conv_grads(Conv2dSpec{2, 1, 1, 1}, 2, 2, 3, 6);
}

TEST(Ops, Conv2dGradCheckDilated) {
  check_conv_grads(Conv2dSpec{1, 2, 2, 1}, 2, 2, 3, 6);
}

TEST(Ops, Conv2dGradCheckDepthwise) {
  check_conv_grads(Conv2dSpec{1, 1, 1, 3}, 3, 3, 3, 5);
}

TEST(Ops, MaxPoolForwardBackward) {
  Tensor x({1, 1, 2, 2}, std::vector<float>{1.0F, 5.0F, 3.0F, 2.0F});
  MaxPoolResult res = maxpool2d_forward(x, 2, 2, 0);
  ASSERT_EQ(res.y.numel(), 1u);
  EXPECT_FLOAT_EQ(res.y[0], 5.0F);
  Tensor gy({1, 1, 1, 1}, std::vector<float>{2.0F});
  Tensor gx = maxpool2d_backward(x.shape(), res.tap, gy, 2, 2, 0);
  EXPECT_FLOAT_EQ(gx[1], 2.0F);  // gradient routed to the max element
  EXPECT_FLOAT_EQ(gx[0], 0.0F);
}

TEST(Ops, AvgPoolForward) {
  Tensor x({1, 1, 2, 2}, std::vector<float>{1.0F, 5.0F, 3.0F, 2.0F});
  Tensor y = avgpool2d_forward(x, 2, 2, 0);
  EXPECT_FLOAT_EQ(y[0], 2.75F);
}

TEST(Ops, AvgPoolGradCheck) {
  Rng rng(11);
  Tensor x = Tensor::randn({1, 2, 4, 4}, rng);
  Tensor y = avgpool2d_forward(x, 3, 1, 1);
  Tensor gy = Tensor::randn(y.shape(), rng);
  Tensor gx = avgpool2d_backward(x.shape(), gy, 3, 1, 1);
  const float eps = 1e-3F;
  auto objective = [&](const Tensor& xx) {
    Tensor yy = avgpool2d_forward(xx, 3, 1, 1);
    double s = 0.0;
    for (std::size_t i = 0; i < yy.numel(); ++i) s += yy[i] * gy[i];
    return s;
  };
  for (std::size_t i = 0; i < 16; ++i) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    EXPECT_NEAR(gx[i], (objective(xp) - objective(xm)) / (2.0 * eps), 1e-2);
  }
}

TEST(Ops, GlobalAvgPool) {
  Tensor x({1, 2, 2, 2},
           std::vector<float>{1.0F, 2.0F, 3.0F, 4.0F, 10.0F, 10.0F, 10.0F, 10.0F});
  Tensor y = global_avgpool_forward(x);
  EXPECT_FLOAT_EQ(y.at2(0, 0), 2.5F);
  EXPECT_FLOAT_EQ(y.at2(0, 1), 10.0F);
  Tensor gy({1, 2}, std::vector<float>{4.0F, 8.0F});
  Tensor gx = global_avgpool_backward(x.shape(), gy);
  EXPECT_FLOAT_EQ(gx.at4(0, 0, 0, 0), 1.0F);
  EXPECT_FLOAT_EQ(gx.at4(0, 1, 1, 1), 2.0F);
}

TEST(Ops, ReLU) {
  Tensor x({4}, std::vector<float>{-1.0F, 0.0F, 2.0F, -3.0F});
  Tensor y = relu_forward(x);
  EXPECT_FLOAT_EQ(y[0], 0.0F);
  EXPECT_FLOAT_EQ(y[2], 2.0F);
  Tensor gy = Tensor::full({4}, 1.0F);
  Tensor gx = relu_backward(x, gy);
  EXPECT_FLOAT_EQ(gx[0], 0.0F);
  EXPECT_FLOAT_EQ(gx[2], 1.0F);
}

TEST(Ops, MatmulVariants) {
  Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at2(0, 0), 58.0F);
  EXPECT_FLOAT_EQ(c.at2(1, 1), 154.0F);

  // a^T stored as [3,2]: matmul_tn(a_T, b) should equal matmul(a, b).
  Tensor a_t({3, 2}, std::vector<float>{1, 4, 2, 5, 3, 6});
  Tensor c2 = matmul_tn(a_t, b);
  for (std::size_t i = 0; i < c.numel(); ++i) EXPECT_FLOAT_EQ(c2[i], c[i]);

  // b^T stored as [2,3]: matmul_nt(a, b_T) should equal matmul(a, b).
  Tensor b_t({2, 3}, std::vector<float>{7, 9, 11, 8, 10, 12});
  Tensor c3 = matmul_nt(a, b_t);
  for (std::size_t i = 0; i < c.numel(); ++i) EXPECT_FLOAT_EQ(c3[i], c[i]);
}

// A zero in A does not drop its term: a NaN in B reaches every C entry
// whose sum reads it, as the non-finite contract asks, and the finite
// entries keep their values.
TEST(Ops, MatmulKeepsNaNBehindAZeroInA) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Tensor a({2, 2}, std::vector<float>{0, 1, 0, 2});
  const Tensor a_t({2, 2}, std::vector<float>{0, 0, 1, 2});
  const Tensor b({2, 3}, std::vector<float>{1, nan, 2, 3, 4, 5});
  for (const Tensor& c : {matmul(a, b), matmul_tn(a_t, b)}) {
    for (int i = 0; i < 2; ++i) EXPECT_TRUE(std::isnan(c.at2(i, 1))) << i;
    EXPECT_EQ(c.at2(0, 0), 3.0F);
    EXPECT_EQ(c.at2(1, 0), 6.0F);
    EXPECT_EQ(c.at2(0, 2), 5.0F);
    EXPECT_EQ(c.at2(1, 2), 10.0F);
  }
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(3);
  Tensor logits = Tensor::randn({4, 7}, rng, 3.0F);
  Tensor p = softmax(logits);
  for (int i = 0; i < 4; ++i) {
    float s = 0.0F;
    for (int j = 0; j < 7; ++j) {
      EXPECT_GT(p.at2(i, j), 0.0F);
      s += p.at2(i, j);
    }
    EXPECT_NEAR(s, 1.0F, 1e-5F);
  }
}

TEST(Ops, SoftmaxNumericalStability) {
  Tensor logits({1, 3}, std::vector<float>{1000.0F, 1000.0F, 1000.0F});
  Tensor p = softmax(logits);
  for (int j = 0; j < 3; ++j) EXPECT_NEAR(p.at2(0, j), 1.0F / 3.0F, 1e-5F);
}

TEST(Ops, CrossEntropyPerfectPrediction) {
  Tensor logits({2, 3}, std::vector<float>{100, 0, 0, 0, 100, 0});
  CrossEntropyResult res = cross_entropy(logits, {0, 1});
  EXPECT_NEAR(res.loss, 0.0F, 1e-4F);
  EXPECT_FLOAT_EQ(res.accuracy, 1.0F);
}

TEST(Ops, CrossEntropyGradCheck) {
  Rng rng(5);
  Tensor logits = Tensor::randn({3, 4}, rng);
  std::vector<int> labels{1, 3, 0};
  CrossEntropyResult res = cross_entropy(logits, labels);
  const float eps = 1e-3F;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    const double fd = (cross_entropy(lp, labels).loss -
                       cross_entropy(lm, labels).loss) /
                      (2.0 * eps);
    EXPECT_NEAR(res.grad_logits[i], fd, 1e-3) << "logit grad at " << i;
  }
}

TEST(Ops, CrossEntropyUniformLoss) {
  // Uniform logits: loss = log(C).
  Tensor logits = Tensor::zeros({4, 10});
  CrossEntropyResult res = cross_entropy(logits, {0, 1, 2, 3});
  EXPECT_NEAR(res.loss, std::log(10.0F), 1e-4F);
}

TEST(Ops, CrossEntropyBadLabelThrows) {
  Tensor logits = Tensor::zeros({1, 3});
  EXPECT_THROW(cross_entropy(logits, {5}), CheckError);
}

}  // namespace
}  // namespace fms
