// Conv kernel contract, selected with `ctest -L kernels`: the library's
// vectorized conv2d_forward / conv2d_backward against the direct loops in
// conv_reference.h over seeded random shapes (bit-identical y, grad_x and
// grad_w), the adjoint identities in double, non-finite propagation, and
// the update screen a non-finite or divergent client still trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/search.h"
#include "src/data/dataset.h"
#include "src/data/synth.h"
#include "src/fault/fault.h"
#include "src/fed/messages.h"
#include "src/obs/health.h"
#include "src/tensor/ops.h"
#include "tests/conv_reference.h"
#include "tests/kernel_checks.h"

namespace fms {
namespace {

constexpr int kDraws = 240;

struct ConvCase {
  int n = 1, cin = 1, cout = 1, h = 1, w = 1, k = 1;
  Conv2dSpec spec;

  int out_h() const {
    return conv_out_size(h, k, spec.stride, spec.padding, spec.dilation);
  }
  int out_w() const {
    return conv_out_size(w, k, spec.stride, spec.padding, spec.dilation);
  }
  std::string str() const {
    std::ostringstream os;
    os << "N=" << n << " Cin=" << cin << " Cout=" << cout << " H=" << h
       << " W=" << w << " k=" << k << " stride=" << spec.stride
       << " pad=" << spec.padding << " dil=" << spec.dilation
       << " groups=" << spec.groups;
    return os.str();
  }
};

// One draw over (N, Cin, Cout, H, W, k, stride, pad, dilation, groups).
// Batch 1, planes of one or two pixels and depthwise convs come up often
// on purpose: a K=50 batch-1 search runs exactly those after its
// reduction cells.
ConvCase draw_case(Rng& rng) {
  ConvCase cc;
  cc.n = rng.bernoulli(0.4) ? 1 : rng.randint(2, 3);
  constexpr std::array<int, 4> kSizes = {1, 2, 3, 5};
  cc.k = kSizes[static_cast<std::size_t>(rng.randint(0, 3))];
  cc.spec.stride = rng.bernoulli(0.6) ? 1 : rng.randint(2, 3);
  cc.spec.dilation = rng.bernoulli(0.6) ? 1 : rng.randint(2, 3);
  const int eff = cc.spec.dilation * (cc.k - 1) + 1;
  cc.spec.padding = rng.randint(0, eff / 2 + 1);
  switch (rng.randint(0, 2)) {
    case 0:  // dense
      cc.cin = rng.randint(1, 6);
      cc.cout = rng.randint(1, 6);
      break;
    case 1: {  // grouped
      const int g = rng.randint(2, 3);
      cc.spec.groups = g;
      cc.cin = g * rng.randint(1, 3);
      cc.cout = g * rng.randint(1, 3);
      break;
    }
    default:  // depthwise, channel multiplier 1 or 2
      cc.cin = rng.randint(1, 6);
      cc.spec.groups = cc.cin;
      cc.cout = cc.cin * rng.randint(1, 2);
      break;
  }
  // The padded input must hold one dilated window.
  const int min_side = std::max(1, eff - 2 * cc.spec.padding);
  const bool tiny = rng.bernoulli(0.35);
  auto side = [&] {
    return tiny ? std::max(min_side, rng.randint(1, 2))
                : rng.randint(min_side, std::max(min_side, 10));
  };
  cc.h = side();
  cc.w = side();
  return cc;
}

// One 1x1 conv without padding or groups: the convs that run as a GEMM in
// 4-row by 16-column tiles. M is Cout for y and grad_w and Cin for grad_x,
// so both reach full row tiles and 1-3-row tails; N*Ho*Wo reaches past two
// vectors of output positions and ends in a partial vector.
ConvCase draw_pointwise_case(Rng& rng) {
  ConvCase cc;
  cc.n = rng.randint(1, 3);
  cc.cin = rng.randint(1, 20);
  cc.cout = rng.randint(5, 15);
  cc.spec.stride = rng.randint(1, 2);
  cc.h = rng.randint(3, 10);
  cc.w = rng.randint(3, 10);
  return cc;
}

// One depthwise conv wider than an 8-lane channel block (C from 7 to 40,
// channel multiplier 1), at the strides and dilations the DARTS separable
// and dilated convs use, with small planes drawn often: on planes of 2x2
// or less most taps of a 3x3 or 5x5 kernel read only padding.
ConvCase draw_depthwise_case(Rng& rng) {
  ConvCase cc;
  cc.n = rng.randint(1, 3);
  cc.cin = rng.randint(7, 40);
  cc.cout = cc.cin;
  cc.spec.groups = cc.cin;
  cc.k = rng.bernoulli(0.5) ? 3 : 5;
  cc.spec.stride = rng.randint(1, 2);
  cc.spec.dilation = rng.randint(1, 2);
  const int eff = cc.spec.dilation * (cc.k - 1) + 1;
  cc.spec.padding = rng.bernoulli(0.7) ? cc.spec.dilation * (cc.k / 2)
                                       : rng.randint(0, eff / 2 + 1);
  const int min_side = std::max(1, eff - 2 * cc.spec.padding);
  const bool tiny = rng.bernoulli(0.5);
  auto side = [&] {
    return tiny ? std::max(min_side, rng.randint(1, 2))
                : rng.randint(min_side, std::max(min_side, 10));
  };
  cc.h = side();
  cc.w = side();
  return cc;
}

// One dense conv shaped like the stem: Cin 1-4 (image channels), Cout
// 5-20 so that the GEMM reaches full and tail row tiles, 3x3 or 5x5
// kernels at stride and dilation 1-2, and padding that keeps the size or
// is drawn. Stride 2 with dilation 2 leaves grad_x phases no tap lands in.
ConvCase draw_dense_case(Rng& rng) {
  ConvCase cc;
  cc.n = rng.randint(1, 3);
  cc.cin = rng.randint(1, 4);
  cc.cout = rng.randint(5, 20);
  cc.k = rng.bernoulli(0.5) ? 3 : 5;
  cc.spec.stride = rng.randint(1, 2);
  cc.spec.dilation = rng.randint(1, 2);
  const int eff = cc.spec.dilation * (cc.k - 1) + 1;
  cc.spec.padding = rng.bernoulli(0.7) ? cc.spec.dilation * (cc.k / 2)
                                       : rng.randint(0, eff / 2 + 1);
  const int min_side = std::max(1, eff - 2 * cc.spec.padding);
  cc.h = rng.randint(min_side, std::max(min_side, 10));
  cc.w = rng.randint(min_side, std::max(min_side, 10));
  return cc;
}

// Whether some stride phase (ih % stride, iw % stride) of the input takes
// no grad_x term at all: no kept tap lands on grad_y for it.
bool has_empty_phase(const ConvCase& cc) {
  const int s = cc.spec.stride;
  auto reached = [&](int in, int out, int phase) {
    for (int o = 0; o < out; ++o) {
      for (int t = 0; t < cc.k; ++t) {
        const int i = o * s - cc.spec.padding + t * cc.spec.dilation;
        if (i >= 0 && i < in && i % s == phase) return true;
      }
    }
    return false;
  };
  for (int a = 0; a < std::min(s, cc.h); ++a) {
    if (!reached(cc.h, cc.out_h(), a)) return true;
  }
  for (int b = 0; b < std::min(s, cc.w); ++b) {
    if (!reached(cc.w, cc.out_w(), b)) return true;
  }
  return false;
}

// Whether some tap of the kernel reads only padding at every output
// position.
bool has_padding_only_tap(const ConvCase& cc) {
  auto reads_inside = [&](int in, int out, int tap) {
    for (int o = 0; o < out; ++o) {
      const int i = o * cc.spec.stride - cc.spec.padding + tap * cc.spec.dilation;
      if (i >= 0 && i < in) return true;
    }
    return false;
  };
  for (int t = 0; t < cc.k; ++t) {
    if (!reads_inside(cc.h, cc.out_h(), t) ||
        !reads_inside(cc.w, cc.out_w(), t)) {
      return true;
    }
  }
  return false;
}

struct ConvData {
  Tensor x, w, gy;
};

// Normal x and w; normal grad_y with about a third of its entries exactly
// zero, as a ReLU or an unsampled op leaves them.
ConvData draw_data(const ConvCase& cc, Rng& rng) {
  ConvData d;
  d.x = Tensor::randn({cc.n, cc.cin, cc.h, cc.w}, rng);
  d.w = Tensor::randn({cc.cout, cc.cin / cc.spec.groups, cc.k, cc.k}, rng,
                      0.5F);
  d.gy = Tensor::randn({cc.n, cc.cout, cc.out_h(), cc.out_w()}, rng);
  for (std::size_t i = 0; i < d.gy.numel(); ++i) {
    if (rng.bernoulli(1.0 / 3.0)) d.gy[i] = 0.0F;
  }
  return d;
}

TEST(ConvKernel, MatchesOracleBitForBitOnRandomShapes) {
  Rng rng(0xC0DE);
  int batch1 = 0, tiny = 0, depthwise = 0, gemm_tails = 0;
  int lane_tails = 0, padding_taps = 0, dense_tails = 0, empty_phases = 0;
  // kDraws general draws, then half as many 1x1 draws, then half as many
  // wide depthwise draws, then kDraws dense draws.
  for (int draw = 0; draw < 3 * kDraws; ++draw) {
    const bool pointwise = draw >= kDraws && draw < kDraws + kDraws / 2;
    const bool wide = draw >= kDraws + kDraws / 2 && draw < 2 * kDraws;
    const bool dense = draw >= 2 * kDraws;
    const ConvCase cc = pointwise ? draw_pointwise_case(rng)
                        : wide    ? draw_depthwise_case(rng)
                        : dense   ? draw_dense_case(rng)
                                  : draw_case(rng);
    const ConvData d = draw_data(cc, rng);
    SCOPED_TRACE("draw " + std::to_string(draw) + ": " + cc.str());
    const Conv2dGrads g = conv2d_backward(d.x, d.w, d.gy, cc.spec);
    const Conv2dGrads want = ref::conv2d_backward(d.x, d.w, d.gy, cc.spec);
    EXPECT_TRUE(bit_equal("y", conv2d_forward(d.x, d.w, cc.spec),
                          ref::conv2d_forward(d.x, d.w, cc.spec)));
    EXPECT_TRUE(bit_equal("grad_x", g.grad_x, want.grad_x));
    EXPECT_TRUE(bit_equal("grad_w", g.grad_w, want.grad_w));
    if (pointwise) {
      const int cols = cc.n * cc.out_h() * cc.out_w();
      gemm_tails += cc.cout % 4 != 0 && cols > 16 && cols % 8 != 0 ? 1 : 0;
      continue;
    }
    if (dense) {
      const int cols = cc.n * cc.out_h() * cc.out_w();
      dense_tails += cc.cout % 4 != 0 && cols % 8 != 0 ? 1 : 0;
      empty_phases += cc.spec.stride == 2 && has_empty_phase(cc) ? 1 : 0;
      continue;
    }
    if (wide) {
      lane_tails += cc.cin > 8 && cc.cin % 8 != 0 ? 1 : 0;
      padding_taps +=
          cc.h <= 2 && cc.w <= 2 && has_padding_only_tap(cc) ? 1 : 0;
      continue;
    }
    batch1 += cc.n == 1 ? 1 : 0;
    tiny += cc.out_h() <= 2 && cc.out_w() <= 2 ? 1 : 0;
    depthwise += cc.spec.groups == cc.cin && cc.cin > 1 ? 1 : 0;
  }
  // The draw must keep covering the shapes the kernels special-case.
  EXPECT_GE(batch1, kDraws / 10);
  EXPECT_GE(tiny, kDraws / 10);
  EXPECT_GE(depthwise, kDraws / 10);
  EXPECT_GE(gemm_tails, kDraws / 10);
  EXPECT_GE(lane_tails, kDraws / 10);
  EXPECT_GE(padding_taps, kDraws / 10);
  EXPECT_GE(dense_tails, kDraws / 10);
  EXPECT_GE(empty_phases, kDraws / 10);
}

// <conv(x, w), g> = <x, conv_x^T(g)> = <w, conv_w^T(g)>: all three are the
// same sum of x * w * g over (output, tap) pairs, so they differ only by
// float rounding, bounded relative to the sum of |x * w * g|.
TEST(ConvKernel, AdjointIdentitiesHoldInDouble) {
  Rng rng(0xAD70);
  // kDraws general draws, then half as many wide depthwise draws, then
  // half as many dense draws.
  for (int draw = 0; draw < 2 * kDraws; ++draw) {
    const ConvCase cc = draw < kDraws                ? draw_case(rng)
                        : draw < kDraws + kDraws / 2 ? draw_depthwise_case(rng)
                                                     : draw_dense_case(rng);
    const ConvData d = draw_data(cc, rng);
    SCOPED_TRACE("draw " + std::to_string(draw) + ": " + cc.str());
    const Conv2dGrads g = conv2d_backward(d.x, d.w, d.gy, cc.spec);
    const double lhs = dot(conv2d_forward(d.x, d.w, cc.spec), d.gy);
    const double tol =
        1e-4 * dot(conv2d_forward(abs_of(d.x), abs_of(d.w), cc.spec),
                   abs_of(d.gy));
    EXPECT_NEAR(lhs, dot(d.x, g.grad_x), tol);
    EXPECT_NEAR(lhs, dot(d.w, g.grad_w), tol);
  }
}

// Wherever the oracle is non-finite the kernel is too: it may add NaNs
// (0 * Inf where the oracle skipped grad_y == 0) but never hides one.
// Where the kernel stays finite it matches the oracle bit for bit.
::testing::AssertionResult keeps_non_finite(const char* what,
                                            const Tensor& got,
                                            const Tensor& want,
                                            int* oracle_non_finite) {
  for (std::size_t i = 0; i < want.numel(); ++i) {
    if (!std::isfinite(want[i])) {
      ++*oracle_non_finite;
      if (std::isfinite(got[i])) {
        return ::testing::AssertionFailure()
               << what << "[" << i << "] = " << got[i] << " hides oracle's "
               << want[i];
      }
    } else if (std::isfinite(got[i]) &&
               std::memcmp(&got.vec()[i], &want.vec()[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << what << "[" << i << "] = " << got[i] << ", oracle " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(ConvKernel, NonFiniteInputsReachEveryOutputTheOracleMarks) {
  Rng rng(0xBAD);
  int oracle_non_finite = 0;
  // kDraws / 2 general draws, then half as many wide depthwise draws, then
  // half as many dense draws.
  for (int draw = 0; draw < kDraws; ++draw) {
    const ConvCase cc = draw < kDraws / 2 ? draw_case(rng)
                        : draw < kDraws / 2 + kDraws / 4
                            ? draw_depthwise_case(rng)
                            : draw_dense_case(rng);
    ConvData d = draw_data(cc, rng);
    const int target = rng.randint(0, 2);  // x, w, or both
    if (target != 1) plant_non_finite(d.x, rng, rng.randint(1, 2));
    if (target != 0) plant_non_finite(d.w, rng, 1);
    SCOPED_TRACE("draw " + std::to_string(draw) + ": " + cc.str());
    const Conv2dGrads g = conv2d_backward(d.x, d.w, d.gy, cc.spec);
    const Conv2dGrads want = ref::conv2d_backward(d.x, d.w, d.gy, cc.spec);
    EXPECT_TRUE(keeps_non_finite("y", conv2d_forward(d.x, d.w, cc.spec),
                                 ref::conv2d_forward(d.x, d.w, cc.spec),
                                 &oracle_non_finite));
    EXPECT_TRUE(keeps_non_finite("grad_x", g.grad_x, want.grad_x,
                                 &oracle_non_finite));
    EXPECT_TRUE(keeps_non_finite("grad_w", g.grad_w, want.grad_w,
                                 &oracle_non_finite));
  }
  EXPECT_GT(oracle_non_finite, 0);
}

// grad_y must have the forward's output shape, whichever kernel the conv
// runs: a larger one would be read past its end, a smaller one would
// leave the gradients silently short.
TEST(ConvKernel, MisShapedGradientIsRejected) {
  Rng rng(5);
  const Tensor x = Tensor::randn({2, 4, 4, 4}, rng);
  struct Kind {
    int cout, k, groups;
  };
  // 1x1, depthwise 3x3 and dense 3x3, each keeping the 4x4 size.
  for (const Kind& kind : {Kind{6, 1, 1}, Kind{4, 3, 4}, Kind{6, 3, 1}}) {
    const Conv2dSpec spec{1, kind.k / 2, 1, kind.groups};
    const Tensor w =
        Tensor::randn({kind.cout, 4 / kind.groups, kind.k, kind.k}, rng);
    SCOPED_TRACE("k=" + std::to_string(kind.k) +
                 " groups=" + std::to_string(kind.groups));
    EXPECT_NO_THROW(conv2d_backward(x, w, Tensor({2, kind.cout, 4, 4}), spec));
    for (const auto& [gh, gw] : {std::pair{6, 6}, std::pair{2, 2},
                                 std::pair{4, 5}}) {
      EXPECT_THROW(
          conv2d_backward(x, w, Tensor({2, kind.cout, gh, gw}), spec),
          CheckError);
    }
    EXPECT_THROW(conv2d_backward(x, w, Tensor({2, kind.cout + 1, 4, 4}), spec),
                 CheckError);
  }
}

// A NaN in a client's activations reaches its weight gradient, and the
// server's update screen rejects that gradient.
TEST(ConvKernel, NonFiniteConvGradientIsScreenedOut) {
  Rng rng(77);
  Tensor x = Tensor::randn({2, 4, 6, 6}, rng);
  const Tensor w = Tensor::randn({4, 4, 3, 3}, rng, 0.5F);
  const Tensor gy = Tensor::randn({2, 4, 6, 6}, rng);
  const Conv2dSpec spec{1, 1, 1, 1};
  UpdateMsg upd;
  upd.reward = 0.5F;
  upd.loss = 1.0F;
  upd.grads = conv2d_backward(x, w, gy, spec).grad_w.vec();
  EXPECT_EQ(screen_update(upd, 1e4F), nullptr);
  x[17] = std::numeric_limits<float>::quiet_NaN();
  upd.grads = conv2d_backward(x, w, gy, spec).grad_w.vec();
  const char* violation = screen_update(upd, 1e4F);
  ASSERT_NE(violation, nullptr);
  EXPECT_STREQ(violation, "grad_not_finite");
}

// The health suite's divergent-client campaign without its payload
// corruption: NaN/Inf/exploding updates alone are still rejected by
// screening and trip its health detector.
TEST(ConvKernel, DivergentCampaignStillTripsScreeningAndItsDetector) {
  Rng rng(14);
  SynthSpec spec;
  spec.train_size = 160;
  spec.test_size = 40;
  spec.image_size = 8;
  const TrainTest data = make_synth_c10(spec, rng);
  SearchConfig cfg;
  cfg.supernet.num_cells = 3;
  cfg.supernet.num_nodes = 2;
  cfg.supernet.stem_channels = 4;
  cfg.supernet.image_size = 8;
  cfg.schedule.batch_size = 8;
  cfg.schedule.num_participants = 4;
  cfg.seed = 14;
  const auto parts = iid_partition(data.train.size(), 4, rng);
  SearchOptions opts;
  opts.fault_plan =
      FaultPlan::parse("divergent=0.5,divergent_p=1.0,seed=6");

  obs::HealthConfig health_cfg;
  health_cfg.window = 6;
  health_cfg.grace_rounds = 4;
  obs::HealthMonitor mon(health_cfg);
  obs::HealthSignal sig;
  sig.participants = cfg.schedule.num_participants;
  FederatedSearch search(cfg, data.train, parts);
  search.run_warmup(1);
  int rejected = 0;
  for (const RoundRecord& rec : search.run_search(12, opts)) {
    mon.observe(rec, sig);
    rejected += rec.rejected;
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GE(mon.find("screening")->state, obs::HealthState::kWarn)
      << mon.summary_table();
}

}  // namespace
}  // namespace fms
