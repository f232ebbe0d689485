// Elementwise kernel contract, selected with `ctest -L kernels`: the
// library's ReLU, BatchNorm2d, max/avg pool and global-average-pool
// kernels against the scalar loops in elementwise_reference.h over seeded
// random shapes (bit-identical outputs, gradients, gamma/beta gradients,
// running statistics and max-pool argmax), the pools' adjoint identities,
// a finite-difference check of the BatchNorm backward, non-finite
// propagation, and the shape checks a mis-shaped gradient trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/nn/layers.h"
#include "src/tensor/ops.h"
#include "tests/elementwise_reference.h"
#include "tests/kernel_checks.h"

namespace fms {
namespace {

constexpr int kDraws = 240;
// Channels per lane group of the BatchNorm kernel's per-channel sums.
constexpr int kBnLanes = 4;

struct Case {
  int n = 1, c = 1, h = 1, w = 1;
  int kernel = 3, stride = 1, padding = 1;

  std::vector<int> shape() const { return {n, c, h, w}; }
  int out_h() const { return conv_out_size(h, kernel, stride, padding, 1); }
  int out_w() const { return conv_out_size(w, kernel, stride, padding, 1); }
  std::vector<int> out_shape() const { return {n, c, out_h(), out_w()}; }
  std::string str() const {
    std::ostringstream os;
    os << "N=" << n << " C=" << c << " H=" << h << " W=" << w
       << " k=" << kernel << " stride=" << stride << " pad=" << padding;
    return os.str();
  }
};

// One draw over (N, C, H, W) and a pool window. Batch 1, 1x1 and 2x2
// planes and channel counts off the BN lane multiple come up often on
// purpose: a K=50 batch-1 search runs exactly those after its reduction
// cells. Windows are mostly the DARTS 3x3 at stride 1 or 2, padding 1.
Case draw_case(Rng& rng) {
  Case cc;
  cc.n = rng.bernoulli(0.4) ? 1 : rng.randint(2, 4);
  cc.c = rng.randint(1, 9);
  if (rng.bernoulli(0.6)) {
    cc.kernel = 3;
    cc.stride = rng.randint(1, 2);
    cc.padding = 1;
  } else {
    constexpr std::array<int, 4> kSizes = {1, 2, 3, 5};
    cc.kernel = kSizes[static_cast<std::size_t>(rng.randint(0, 3))];
    cc.stride = rng.randint(1, 3);
    cc.padding = rng.randint(0, cc.kernel / 2);
  }
  // The padded input must hold one window.
  const int min_side = std::max(1, cc.kernel - 2 * cc.padding);
  const bool tiny = rng.bernoulli(0.35);
  auto side = [&] {
    return tiny ? std::max(min_side, rng.randint(1, 2))
                : rng.randint(min_side, std::max(min_side, 10));
  };
  cc.h = side();
  cc.w = side();
  return cc;
}

// A draw at the lane kernel's shapes: 7 to 40 channels, so one to five
// 8-lane blocks with tails, any window the pools accept, and planes whose
// sides are at most 2 about half the time, where windows hang over the
// edges and taps read only padding.
Case draw_pool_lane_case(Rng& rng) {
  Case cc;
  cc.n = rng.randint(1, 3);
  cc.c = rng.randint(7, 40);
  constexpr std::array<int, 4> kSizes = {1, 2, 3, 5};
  cc.kernel = kSizes[static_cast<std::size_t>(rng.randint(0, 3))];
  cc.stride = rng.randint(1, 3);
  cc.padding = rng.randint(0, cc.kernel / 2);
  const int min_side = std::max(1, cc.kernel - 2 * cc.padding);
  auto side = [&] {
    return rng.bernoulli(0.5) ? std::max(min_side, rng.randint(1, 2))
                              : rng.randint(min_side, std::max(min_side, 10));
  };
  cc.h = side();
  cc.w = side();
  return cc;
}

// Along one axis of a pool's windows: whether some tap reads only padding
// at every output (the lane kernel drops it), and whether some input phase
// i % stride is read by no tap (the backward's phase for it has no taps).
struct AxisReach {
  bool padding_tap = false;
  bool empty_phase = false;
};

AxisReach axis_reach(int in, int out, const Case& cc) {
  std::vector<bool> tap(static_cast<std::size_t>(cc.kernel));
  std::vector<bool> phase(static_cast<std::size_t>(std::min(cc.stride, in)));
  for (int o = 0; o < out; ++o) {
    for (int t = 0; t < cc.kernel; ++t) {
      const int i = o * cc.stride - cc.padding + t;
      if (i < 0 || i >= in) continue;
      tap[static_cast<std::size_t>(t)] = true;
      phase[static_cast<std::size_t>(i % cc.stride)] = true;
    }
  }
  return {std::find(tap.begin(), tap.end(), false) != tap.end(),
          std::find(phase.begin(), phase.end(), false) != phase.end()};
}

// Normal data with about a fifth of it exactly zero or negative zero, so
// ReLU's boundary and BN's and the pools' signed zeros are exercised.
Tensor draw_tensor(const std::vector<int>& shape, Rng& rng) {
  Tensor t = Tensor::randn(shape, rng);
  for (float& v : t.vec()) {
    if (rng.bernoulli(0.1)) v = 0.0F;
    if (rng.bernoulli(0.1)) v = -0.0F;
  }
  return t;
}

ref::BatchNormState draw_bn_state(int c, Rng& rng) {
  ref::BatchNormState st;
  for (int i = 0; i < c; ++i) {
    st.gamma.push_back(rng.normal(1.0F, 0.5F));
    st.beta.push_back(rng.normal(0.0F, 0.5F));
    st.running_mean.push_back(rng.normal(0.0F, 0.3F));
    st.running_var.push_back(1.0F + std::fabs(rng.normal(0.0F, 0.5F)));
  }
  return st;
}

::testing::AssertionResult bit_equal(const char* what,
                                     const std::vector<float>& got,
                                     const std::vector<float>& want) {
  return fms::bit_equal(
      what, Tensor({static_cast<int>(got.size())}, got),
      Tensor({static_cast<int>(want.size())}, want));
}

// Flat input offsets of a max pool's per-output window taps.
std::vector<std::size_t> flat_argmax(const Case& cc,
                                     const std::vector<std::uint8_t>& tap) {
  std::vector<std::size_t> flat;
  std::size_t o = 0;
  for (int p = 0; p < cc.n * cc.c; ++p) {
    for (int oh = 0; oh < cc.out_h(); ++oh) {
      for (int ow = 0; ow < cc.out_w(); ++ow, ++o) {
        const int ih = oh * cc.stride - cc.padding + tap[o] / cc.kernel;
        const int iw = ow * cc.stride - cc.padding + tap[o] % cc.kernel;
        flat.push_back((static_cast<std::size_t>(p) * cc.h + ih) * cc.w + iw);
      }
    }
  }
  return flat;
}

// The kernels run the oracle's operations, so even non-finite results
// agree: NaN where the oracle has NaN, the same bits everywhere else.
::testing::AssertionResult same_values(const char* what, const Tensor& got,
                                       const Tensor& want,
                                       int* oracle_non_finite) {
  if (got.shape() != want.shape()) {
    return ::testing::AssertionFailure() << what << " shape mismatch";
  }
  for (std::size_t i = 0; i < want.numel(); ++i) {
    if (!std::isfinite(want[i])) ++*oracle_non_finite;
    const bool nan_ok = std::isnan(want[i]) && std::isnan(got[i]);
    if (!nan_ok &&
        std::memcmp(&got.vec()[i], &want.vec()[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << what << "[" << i << "] = " << got[i] << ", oracle " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

struct BnRun {
  Tensor y, xhat, eval_y, grad_x;
  std::vector<float> inv_std, running_mean, running_var, gamma_grad,
      beta_grad;
};

// The library's BatchNorm kernels on st (its running stats are copied).
BnRun run_bn(const Tensor& x, const Tensor& gy, const ref::BatchNormState& st) {
  const Shape4 s = Shape4::of(x.shape());
  BnRun r{Tensor(x.shape()), Tensor(x.shape()), Tensor(x.shape()),
          Tensor(x.shape()), std::vector<float>(st.gamma.size()),
          st.running_mean, st.running_var,
          std::vector<float>(st.gamma.size(), 0.25F),
          std::vector<float>(st.gamma.size(), -0.5F)};
  const BatchNormChannels ch{st.gamma.data(),        st.beta.data(),
                             r.running_mean.data(), r.running_var.data(),
                             st.eps,                 st.momentum};
  batchnorm2d_forward_eval(s, x.data(), ch, r.eval_y.data());
  batchnorm2d_forward_train(s, x.data(), ch, r.y.data(), r.xhat.data(),
                            r.inv_std.data());
  batchnorm2d_backward(s, gy.data(), r.xhat.data(), r.inv_std.data(),
                       st.gamma.data(), r.gamma_grad.data(),
                       r.beta_grad.data(), r.grad_x.data());
  return r;
}

struct BnOracle {
  ref::BatchNormTrain fwd;
  Tensor eval_y, grad_x;
  ref::BatchNormState st;
  std::vector<float> gamma_grad, beta_grad;
};

BnOracle run_bn_oracle(const Tensor& x, const Tensor& gy,
                       const ref::BatchNormState& st0) {
  BnOracle o{{}, ref::batchnorm_forward_eval(x, st0), {}, st0,
             std::vector<float>(st0.gamma.size(), 0.25F),
             std::vector<float>(st0.gamma.size(), -0.5F)};
  o.fwd = ref::batchnorm_forward_train(x, o.st);
  o.grad_x =
      ref::batchnorm_backward(gy, o.fwd, st0.gamma, o.gamma_grad, o.beta_grad);
  return o;
}

TEST(ElementwiseKernel, ReluMatchesOracleBitForBitOnRandomShapes) {
  Rng rng(0x5E1);
  for (int draw = 0; draw < kDraws; ++draw) {
    const Case cc = draw_case(rng);
    SCOPED_TRACE("draw " + std::to_string(draw) + ": " + cc.str());
    const Tensor x = draw_tensor(cc.shape(), rng);
    const Tensor gy = draw_tensor(cc.shape(), rng);
    ReLU relu;
    EXPECT_TRUE(bit_equal("y", relu.forward(x, /*train=*/true),
                          ref::relu_forward(x)));
    EXPECT_TRUE(bit_equal("grad_x", relu.backward(gy),
                          ref::relu_backward(x, gy)));
    EXPECT_TRUE(bit_equal("eval y", relu.forward(x, /*train=*/false),
                          ref::relu_forward(x)));
    EXPECT_TRUE(bit_equal("relu_backward", relu_backward(x, gy),
                          ref::relu_backward(x, gy)));
  }
}

TEST(ElementwiseKernel, BatchNormMatchesOracleBitForBitOnRandomShapes) {
  Rng rng(0xB4);
  int batch1 = 0, tiny = 0, off_lanes = 0;
  for (int draw = 0; draw < kDraws; ++draw) {
    const Case cc = draw_case(rng);
    SCOPED_TRACE("draw " + std::to_string(draw) + ": " + cc.str());
    const Tensor x = draw_tensor(cc.shape(), rng);
    const Tensor gy = draw_tensor(cc.shape(), rng);
    const ref::BatchNormState st = draw_bn_state(cc.c, rng);
    const BnRun got = run_bn(x, gy, st);
    const BnOracle want = run_bn_oracle(x, gy, st);
    EXPECT_TRUE(bit_equal("y", got.y, want.fwd.y));
    EXPECT_TRUE(bit_equal("xhat", got.xhat, want.fwd.xhat));
    EXPECT_TRUE(bit_equal("inv_std", got.inv_std, want.fwd.inv_std));
    EXPECT_TRUE(
        bit_equal("running_mean", got.running_mean, want.st.running_mean));
    EXPECT_TRUE(bit_equal("running_var", got.running_var, want.st.running_var));
    EXPECT_TRUE(bit_equal("eval y", got.eval_y, want.eval_y));
    EXPECT_TRUE(bit_equal("grad_x", got.grad_x, want.grad_x));
    EXPECT_TRUE(bit_equal("gamma_grad", got.gamma_grad, want.gamma_grad));
    EXPECT_TRUE(bit_equal("beta_grad", got.beta_grad, want.beta_grad));
    batch1 += cc.n == 1 ? 1 : 0;
    tiny += cc.h <= 2 && cc.w <= 2 ? 1 : 0;
    off_lanes += cc.c % kBnLanes != 0 ? 1 : 0;
  }
  // The draw must keep covering the shapes the kernels special-case.
  EXPECT_GE(batch1, kDraws / 10);
  EXPECT_GE(tiny, kDraws / 10);
  EXPECT_GE(off_lanes, kDraws / 10);
}

// The layer (fresh: gamma 1, beta 0, running stats 0 and 1) keeps its
// input's shape and xhat between forward and backward.
TEST(ElementwiseKernel, BatchNormLayerMatchesOracle) {
  Rng rng(0xB5);
  for (int draw = 0; draw < kDraws / 4; ++draw) {
    const Case cc = draw_case(rng);
    SCOPED_TRACE("draw " + std::to_string(draw) + ": " + cc.str());
    const Tensor x = draw_tensor(cc.shape(), rng);
    const Tensor gy = draw_tensor(cc.shape(), rng);
    ref::BatchNormState st;
    st.gamma.assign(static_cast<std::size_t>(cc.c), 1.0F);
    st.beta.assign(static_cast<std::size_t>(cc.c), 0.0F);
    st.running_mean.assign(static_cast<std::size_t>(cc.c), 0.0F);
    st.running_var.assign(static_cast<std::size_t>(cc.c), 1.0F);
    BatchNorm2d bn(cc.c);
    const Tensor y = bn.forward(x, /*train=*/true);
    const Tensor gx = bn.backward(gy);
    std::vector<float> gamma_grad(st.gamma.size()), beta_grad(st.gamma.size());
    const ref::BatchNormTrain fwd = ref::batchnorm_forward_train(x, st);
    EXPECT_TRUE(bit_equal("y", y, fwd.y));
    EXPECT_TRUE(bit_equal(
        "grad_x", gx,
        ref::batchnorm_backward(gy, fwd, st.gamma, gamma_grad, beta_grad)));
    const std::vector<Param*> ps = bn.params();
    EXPECT_TRUE(bit_equal("gamma_grad", ps[0]->grad.vec(), gamma_grad));
    EXPECT_TRUE(bit_equal("beta_grad", ps[1]->grad.vec(), beta_grad));
    // Eval mode reads the running stats the train step just updated.
    EXPECT_TRUE(bit_equal("eval y", bn.forward(x, /*train=*/false),
                          ref::batchnorm_forward_eval(x, st)));
  }
}

TEST(ElementwiseKernel, PoolsMatchOracleBitForBitOnRandomShapes) {
  Rng rng(0x9001);
  int batch1 = 0, tiny = 0, s1p1 = 0, s2p1 = 0;
  int lane_tails = 0, padding_taps = 0, empty_phases = 0;
  // kDraws general draws, then as many at the lane kernel's shapes.
  for (int draw = 0; draw < 2 * kDraws; ++draw) {
    const Case cc = draw < kDraws ? draw_case(rng) : draw_pool_lane_case(rng);
    SCOPED_TRACE("draw " + std::to_string(draw) + ": " + cc.str());
    const Tensor x = draw_tensor(cc.shape(), rng);
    const Tensor gy = draw_tensor(cc.out_shape(), rng);

    const MaxPoolResult mp =
        maxpool2d_forward(x, cc.kernel, cc.stride, cc.padding);
    const ref::MaxPoolRef mp_want =
        ref::maxpool2d_forward(x, cc.kernel, cc.stride, cc.padding);
    EXPECT_TRUE(bit_equal("max y", mp.y, mp_want.y));
    EXPECT_EQ(flat_argmax(cc, mp.tap), mp_want.argmax);
    MaxPool2d max_layer(cc.kernel, cc.stride, cc.padding);
    EXPECT_TRUE(bit_equal("max layer y", max_layer.forward(x, true),
                          mp_want.y));
    EXPECT_TRUE(bit_equal("max grad_x", max_layer.backward(gy),
                          ref::maxpool2d_backward(x.shape(), mp_want, gy)));

    AvgPool2d avg_layer(cc.kernel, cc.stride, cc.padding);
    EXPECT_TRUE(bit_equal(
        "avg y", avg_layer.forward(x, true),
        ref::avgpool2d_forward(x, cc.kernel, cc.stride, cc.padding)));
    EXPECT_TRUE(bit_equal("avg grad_x", avg_layer.backward(gy),
                          ref::avgpool2d_backward(x.shape(), gy, cc.kernel,
                                                  cc.stride, cc.padding)));

    GlobalAvgPool gap;
    const Tensor gap_gy = draw_tensor({cc.n, cc.c}, rng);
    EXPECT_TRUE(bit_equal("gap y", gap.forward(x, true),
                          ref::global_avgpool_forward(x)));
    EXPECT_TRUE(bit_equal("gap grad_x", gap.backward(gap_gy),
                          ref::global_avgpool_backward(x.shape(), gap_gy)));

    if (draw < kDraws) {
      batch1 += cc.n == 1 ? 1 : 0;
      tiny += cc.h <= 2 && cc.w <= 2 ? 1 : 0;
      s1p1 += cc.stride == 1 && cc.padding == 1 ? 1 : 0;
      s2p1 += cc.stride == 2 && cc.padding == 1 ? 1 : 0;
    } else {
      const AxisReach rows = axis_reach(cc.h, cc.out_h(), cc);
      const AxisReach cols = axis_reach(cc.w, cc.out_w(), cc);
      lane_tails += cc.c > 8 && cc.c % 8 != 0 ? 1 : 0;
      padding_taps += rows.padding_tap || cols.padding_tap ? 1 : 0;
      empty_phases += rows.empty_phase || cols.empty_phase ? 1 : 0;
    }
  }
  EXPECT_GE(batch1, kDraws / 10);
  EXPECT_GE(tiny, kDraws / 10);
  EXPECT_GE(s1p1, kDraws / 10);
  EXPECT_GE(s2p1, kDraws / 10);
  EXPECT_GE(lane_tails, kDraws / 10);
  EXPECT_GE(padding_taps, kDraws / 10);
  EXPECT_GE(empty_phases, kDraws / 10);
}

// <pool(x), g> = <x, pool^T(g)> for both pools, the max pool's transpose
// taken at its forward's argmax taps: each side is the same sum of x * g
// (times 1/k^2 for avg) over (output, tap) pairs, so they differ only by
// float rounding, bounded relative to the sum of the terms' magnitudes.
TEST(ElementwiseKernel, PoolAdjointIdentitiesHoldInDouble) {
  Rng rng(0xAD71);
  for (int draw = 0; draw < 2 * kDraws; ++draw) {
    const Case cc = draw < kDraws ? draw_case(rng) : draw_pool_lane_case(rng);
    SCOPED_TRACE("draw " + std::to_string(draw) + ": " + cc.str());
    const Tensor x = draw_tensor(cc.shape(), rng);
    const Tensor g = draw_tensor(cc.out_shape(), rng);
    const int k = cc.kernel, s = cc.stride, p = cc.padding;

    const Tensor avg_gx = avgpool2d_backward(x.shape(), g, k, s, p);
    EXPECT_NEAR(dot(avgpool2d_forward(x, k, s, p), g), dot(x, avg_gx),
                1e-4 * dot(avgpool2d_forward(abs_of(x), k, s, p), abs_of(g)));

    const MaxPoolResult mp = maxpool2d_forward(x, k, s, p);
    const Tensor max_gx = maxpool2d_backward(x.shape(), mp.tap, g, k, s, p);
    EXPECT_NEAR(dot(mp.y, g), dot(x, max_gx),
                1e-4 * dot(abs_of(mp.y), abs_of(g)));
  }
}

// Central differences of sum(y * w) in double against the analytic
// gradients of x, gamma and beta.
TEST(ElementwiseKernel, BatchNormBackwardMatchesFiniteDifferences) {
  Rng rng(0xFD);
  for (int draw = 0; draw < 12; ++draw) {
    const Shape4 s{rng.randint(1, 3), rng.randint(1, 6), rng.randint(1, 4),
                   rng.randint(2, 4)};
    SCOPED_TRACE("draw " + std::to_string(draw));
    const Tensor x = Tensor::randn(s.dims(), rng);
    const Tensor wts = Tensor::randn(s.dims(), rng);
    ref::BatchNormState st = draw_bn_state(s.c, rng);
    auto objective = [&](const Tensor& xx, const std::vector<float>& gamma,
                         const std::vector<float>& beta) {
      std::vector<float> rm = st.running_mean, rv = st.running_var;
      const BatchNormChannels ch{gamma.data(), beta.data(), rm.data(),
                                 rv.data(),    st.eps,      st.momentum};
      Tensor y(xx.shape()), xhat(xx.shape());
      std::vector<float> inv_std(gamma.size());
      batchnorm2d_forward_train(s, xx.data(), ch, y.data(), xhat.data(),
                                inv_std.data());
      double sum = 0.0;
      for (std::size_t i = 0; i < y.numel(); ++i) {
        sum += static_cast<double>(y[i]) * wts[i];
      }
      return sum;
    };
    const BnRun got = run_bn(x, wts, st);
    const float eps = 1e-2F;
    for (std::size_t i = 0; i < x.numel(); ++i) {
      Tensor xp = x, xm = x;
      xp[i] += eps;
      xm[i] -= eps;
      const double fd = (objective(xp, st.gamma, st.beta) -
                         objective(xm, st.gamma, st.beta)) /
                        (2.0 * eps);
      EXPECT_NEAR(got.grad_x[i], fd, 2e-2 * (1.0 + std::fabs(fd))) << i;
    }
    for (std::size_t c = 0; c < st.gamma.size(); ++c) {
      std::vector<float> gp = st.gamma, gm = st.gamma, bp = st.beta,
                         bm = st.beta;
      gp[c] += eps;
      gm[c] -= eps;
      bp[c] += eps;
      bm[c] -= eps;
      const double fd_gamma =
          (objective(x, gp, st.beta) - objective(x, gm, st.beta)) / (2.0 * eps);
      const double fd_beta =
          (objective(x, st.gamma, bp) - objective(x, st.gamma, bm)) /
          (2.0 * eps);
      // The kernel accumulated onto gamma_grad = 0.25, beta_grad = -0.5.
      EXPECT_NEAR(got.gamma_grad[c] - 0.25F, fd_gamma,
                  2e-2 * (1.0 + std::fabs(fd_gamma)));
      EXPECT_NEAR(got.beta_grad[c] + 0.5F, fd_beta,
                  2e-2 * (1.0 + std::fabs(fd_beta)));
    }
  }
}

// NaN/Inf in BN's input or gradient, or in a pool's input or gradient,
// reaches the outputs and gradients exactly where the oracle's do.
TEST(ElementwiseKernel, NonFiniteValuesReachEveryOutputTheOracleMarks) {
  Rng rng(0xBAD1);
  int oracle_non_finite = 0;
  // kDraws / 2 general draws, then as many at the lane kernel's shapes.
  for (int draw = 0; draw < kDraws; ++draw) {
    const Case cc =
        draw < kDraws / 2 ? draw_case(rng) : draw_pool_lane_case(rng);
    SCOPED_TRACE("draw " + std::to_string(draw) + ": " + cc.str());
    Tensor x = draw_tensor(cc.shape(), rng);
    Tensor gy = draw_tensor(cc.shape(), rng);
    Tensor pool_gy = draw_tensor(cc.out_shape(), rng);
    const int target = rng.randint(0, 2);  // input, gradient, or both
    if (target != 1) plant_non_finite(x, rng, rng.randint(1, 2));
    if (target != 0) {
      plant_non_finite(gy, rng, 1);
      plant_non_finite(pool_gy, rng, 1);
    }
    const ref::BatchNormState st = draw_bn_state(cc.c, rng);
    const BnRun got = run_bn(x, gy, st);
    const BnOracle want = run_bn_oracle(x, gy, st);
    int* nf = &oracle_non_finite;
    EXPECT_TRUE(same_values("bn y", got.y, want.fwd.y, nf));
    EXPECT_TRUE(same_values("bn eval y", got.eval_y, want.eval_y, nf));
    EXPECT_TRUE(same_values("bn grad_x", got.grad_x, want.grad_x, nf));
    EXPECT_TRUE(same_values(
        "bn gamma_grad", Tensor({cc.c}, got.gamma_grad),
        Tensor({cc.c}, want.gamma_grad), nf));
    EXPECT_TRUE(same_values("bn running_var", Tensor({cc.c}, got.running_var),
                            Tensor({cc.c}, want.st.running_var), nf));

    const ref::MaxPoolRef mp_want =
        ref::maxpool2d_forward(x, cc.kernel, cc.stride, cc.padding);
    MaxPool2d max_layer(cc.kernel, cc.stride, cc.padding);
    EXPECT_TRUE(
        same_values("max y", max_layer.forward(x, true), mp_want.y, nf));
    EXPECT_TRUE(
        same_values("max grad_x", max_layer.backward(pool_gy),
                    ref::maxpool2d_backward(x.shape(), mp_want, pool_gy), nf));
    AvgPool2d avg_layer(cc.kernel, cc.stride, cc.padding);
    EXPECT_TRUE(same_values(
        "avg y", avg_layer.forward(x, true),
        ref::avgpool2d_forward(x, cc.kernel, cc.stride, cc.padding), nf));
    EXPECT_TRUE(same_values("avg grad_x", avg_layer.backward(pool_gy),
                            ref::avgpool2d_backward(x.shape(), pool_gy,
                                                    cc.kernel, cc.stride,
                                                    cc.padding),
                            nf));
    GlobalAvgPool gap;
    EXPECT_TRUE(same_values("gap y", gap.forward(x, true),
                            ref::global_avgpool_forward(x), nf));
  }
  EXPECT_GT(oracle_non_finite, 0);
}

// A NaN wins its max-pool window wherever it sits in it; among numbers the
// first maximum wins, so a later equal value never takes the gradient.
TEST(ElementwiseKernel, MaxPoolNaNWinsItsWindowAndFirstMaximumWinsTies) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (int at = 0; at < 4; ++at) {
    Tensor x({1, 1, 2, 2}, std::vector<float>{1.0F, 5.0F, 3.0F, 2.0F});
    x[static_cast<std::size_t>(at)] = nan;
    const MaxPoolResult res = maxpool2d_forward(x, 2, 2, 0);
    EXPECT_TRUE(std::isnan(res.y[0])) << "NaN at " << at;
    EXPECT_EQ(res.tap[0], at);
    const Tensor gx = maxpool2d_backward(
        x.shape(), res.tap, Tensor({1, 1, 1, 1}, std::vector<float>{2.0F}),
        2, 2, 0);
    EXPECT_EQ(gx[static_cast<std::size_t>(at)], 2.0F);
  }
  const Tensor ties({1, 1, 2, 2}, std::vector<float>{1.0F, 4.0F, 4.0F, 0.0F});
  EXPECT_EQ(maxpool2d_forward(ties, 2, 2, 0).tap[0], 1);
  // -0 and +0 compare equal: the first keeps the window, sign and all.
  const Tensor zeros({1, 1, 1, 2}, std::vector<float>{-0.0F, 0.0F});
  const MaxPoolResult z = maxpool2d_forward(zeros, 2, 1, 1);
  EXPECT_TRUE(std::signbit(z.y[1]));
  // A padded window whose in-bounds values are all -inf reports its first
  // in-bounds tap, never a padding tap: every window of this 3x3 pool with
  // padding 1 over a 2x2 plane holds input (0, 0) first, at tap 4, 3, 1
  // and 0.
  const float inf = std::numeric_limits<float>::infinity();
  const Tensor lows({1, 1, 2, 2}, std::vector<float>(4, -inf));
  const MaxPoolResult low = maxpool2d_forward(lows, 3, 1, 1);
  ASSERT_EQ(low.tap, (std::vector<std::uint8_t>{4, 3, 1, 0}));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(low.y[i], -inf);
  const Tensor low_gy({1, 1, 2, 2}, std::vector<float>{1.0F, 2.0F, 3.0F, 4.0F});
  EXPECT_TRUE(bit_equal(
      "all -inf grad_x",
      maxpool2d_backward(lows.shape(), low.tap, low_gy, 3, 1, 1),
      Tensor({1, 1, 2, 2}, std::vector<float>{10.0F, 0.0F, 0.0F, 0.0F})));
}

// ReLU maps a NaN input to 0 and routes no gradient through it, while a
// NaN gradient at a positive input reaches grad_x.
TEST(ElementwiseKernel, ReluMapsNaNInputToZeroBothWays) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Tensor x({4}, std::vector<float>{nan, 2.0F, -1.0F, 0.0F});
  const Tensor gy({4}, std::vector<float>{5.0F, nan, 7.0F, 8.0F});
  ReLU relu;
  const Tensor y = relu.forward(x, /*train=*/true);
  EXPECT_EQ(y[0], 0.0F);
  EXPECT_EQ(y[1], 2.0F);
  const Tensor gx = relu.backward(gy);
  EXPECT_EQ(gx[0], 0.0F);
  EXPECT_TRUE(std::isnan(gx[1]));
  EXPECT_EQ(gx[2], 0.0F);
  EXPECT_EQ(gx[3], 0.0F);
  EXPECT_TRUE(bit_equal("relu_backward", relu_backward(x, gy),
                        ref::relu_backward(x, gy)));
}

// A gradient whose shape differs from the forward's output is rejected
// before any raw-pointer read, even when its element count matches.
TEST(ElementwiseKernel, MisShapedGradientsAreRejected) {
  Rng rng(3);
  const Tensor x = Tensor::randn({2, 3, 4, 4}, rng);
  const Tensor same_numel = Tensor::randn({2, 3, 2, 8}, rng);
  const Tensor small = Tensor::randn({2, 3, 4, 3}, rng);

  BatchNorm2d bn(3);
  bn.forward(x, true);
  EXPECT_THROW(bn.backward(same_numel), CheckError);
  EXPECT_THROW(bn.backward(small), CheckError);

  ReLU relu;
  relu.forward(x, true);
  EXPECT_THROW(relu.backward(same_numel), CheckError);

  MaxPool2d mp(3, 1, 1);
  mp.forward(x, true);
  EXPECT_THROW(mp.backward(same_numel), CheckError);
  EXPECT_THROW(mp.backward(small), CheckError);

  AvgPool2d ap(3, 2, 1);
  ap.forward(x, true);
  EXPECT_THROW(ap.backward(x), CheckError);
  EXPECT_THROW(ap.backward(Tensor::randn({2, 3, 1, 4}, rng)), CheckError);

  GlobalAvgPool gap;
  gap.forward(x, true);
  EXPECT_THROW(gap.backward(Tensor::randn({3, 2}, rng)), CheckError);
  EXPECT_THROW(gap.backward(Tensor::randn({2, 3, 1, 1}, rng)), CheckError);

  EXPECT_THROW(avgpool2d_backward(x.shape(), same_numel, 3, 1, 1), CheckError);
  EXPECT_THROW(global_avgpool_backward(x.shape(), Tensor({6})), CheckError);
}

}  // namespace
}  // namespace fms
