// Tests for the NAS search space: candidate ops, cell DAG, supernet
// masking, parameter bookkeeping, genotype discretization, discrete net.
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <utility>

#include "gtest/gtest.h"
#include "src/nas/discrete_net.h"
#include "src/nas/supernet.h"
#include "src/tensor/ops.h"

namespace fms {
namespace {

SupernetConfig small_cfg() {
  SupernetConfig cfg;
  cfg.num_cells = 3;
  cfg.num_nodes = 2;
  cfg.stem_channels = 4;
  cfg.num_classes = 10;
  cfg.image_size = 8;
  return cfg;
}

TEST(NasOps, AllOpsPreserveShapeAtStride1) {
  Rng rng(1);
  Tensor x = Tensor::randn({1, 4, 8, 8}, rng);
  for (int o = 0; o < kNumOps; ++o) {
    auto op = make_candidate_op(static_cast<OpType>(o), 4, 1, rng);
    Tensor y = op->forward(x, false);
    EXPECT_EQ(y.shape(), x.shape()) << op_name(static_cast<OpType>(o));
  }
}

TEST(NasOps, AllOpsHalveSpatialAtStride2) {
  Rng rng(2);
  Tensor x = Tensor::randn({1, 4, 8, 8}, rng);
  for (int o = 0; o < kNumOps; ++o) {
    auto op = make_candidate_op(static_cast<OpType>(o), 4, 2, rng);
    Tensor y = op->forward(x, false);
    EXPECT_EQ(y.dim(1), 4) << op_name(static_cast<OpType>(o));
    EXPECT_EQ(y.dim(2), 4) << op_name(static_cast<OpType>(o));
    EXPECT_EQ(y.dim(3), 4) << op_name(static_cast<OpType>(o));
  }
}

TEST(NasOps, ZeroOpOutputsZerosAndZeroGrads) {
  Rng rng(3);
  ZeroOp op(1);
  Tensor x = Tensor::randn({1, 2, 4, 4}, rng);
  Tensor y = op.forward(x, true);
  EXPECT_FLOAT_EQ(y.l2_norm(), 0.0F);
  Tensor gx = op.backward(Tensor::full(y.shape(), 1.0F));
  EXPECT_FLOAT_EQ(gx.l2_norm(), 0.0F);
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(Cell, EdgeCountFormula) {
  EXPECT_EQ(Cell::num_edges(1), 2);
  EXPECT_EQ(Cell::num_edges(2), 5);
  EXPECT_EQ(Cell::num_edges(3), 9);
  EXPECT_EQ(Cell::num_edges(4), 14);  // the DARTS cell
}

TEST(Cell, MaskedForwardShape) {
  Rng rng(4);
  CellSpec spec;
  spec.nodes = 2;
  spec.c_prev_prev = 4;
  spec.c_prev = 4;
  spec.c = 4;
  Cell cell(spec, rng);
  Tensor s0 = Tensor::randn({2, 4, 8, 8}, rng);
  Tensor s1 = Tensor::randn({2, 4, 8, 8}, rng);
  std::vector<int> mask(static_cast<std::size_t>(cell.num_edges()),
                        static_cast<int>(OpType::kSepConv3));
  Tensor y = cell.forward(s0, s1, mask, false);
  EXPECT_EQ(y.dim(1), cell.out_channels());
  EXPECT_EQ(y.dim(2), 8);
}

TEST(Cell, ReductionCellHalvesSpatial) {
  Rng rng(5);
  CellSpec spec;
  spec.nodes = 2;
  spec.c_prev_prev = 4;
  spec.c_prev = 4;
  spec.c = 8;
  spec.reduction = true;
  Cell cell(spec, rng);
  Tensor s0 = Tensor::randn({1, 4, 8, 8}, rng);
  Tensor s1 = Tensor::randn({1, 4, 8, 8}, rng);
  std::vector<int> mask(static_cast<std::size_t>(cell.num_edges()),
                        static_cast<int>(OpType::kMaxPool3));
  Tensor y = cell.forward(s0, s1, mask, false);
  EXPECT_EQ(y.dim(2), 4);
  EXPECT_EQ(y.dim(1), 16);
}

TEST(Cell, BackwardShapesMatchInputs) {
  Rng rng(6);
  CellSpec spec;
  spec.nodes = 2;
  spec.c_prev_prev = 4;
  spec.c_prev = 4;
  spec.c = 4;
  Cell cell(spec, rng);
  Tensor s0 = Tensor::randn({1, 4, 6, 6}, rng);
  Tensor s1 = Tensor::randn({1, 4, 6, 6}, rng);
  std::vector<int> mask{1, 4, 2, 3, 6};  // mixed ops across 5 edges
  Tensor y = cell.forward(s0, s1, mask, true);
  auto [g0, g1] = cell.backward(Tensor::full(y.shape(), 0.01F));
  EXPECT_EQ(g0.shape(), s0.shape());
  EXPECT_EQ(g1.shape(), s1.shape());
  EXPECT_GT(g0.l2_norm() + g1.l2_norm(), 0.0F);
}

TEST(Cell, MixedForwardMatchesMaskedWhenOneHot) {
  // With one-hot edge weights, mixed mode must equal masked mode exactly
  // (in eval mode so batch-norm state does not interfere across calls).
  Rng rng(7);
  CellSpec spec;
  spec.nodes = 2;
  spec.c_prev_prev = 4;
  spec.c_prev = 4;
  spec.c = 4;
  Cell cell(spec, rng);
  Tensor s0 = Tensor::randn({1, 4, 6, 6}, rng);
  Tensor s1 = Tensor::randn({1, 4, 6, 6}, rng);
  std::vector<int> mask{1, 4, 2, 3, 6};
  Tensor y_masked = cell.forward(s0, s1, mask, false);
  EdgeWeights w(static_cast<std::size_t>(cell.num_edges()));
  for (std::size_t e = 0; e < w.size(); ++e) {
    w[e].fill(0.0F);
    w[e][static_cast<std::size_t>(mask[e])] = 1.0F;
  }
  Tensor y_mixed = cell.forward_mixed(s0, s1, w, false);
  ASSERT_EQ(y_mixed.numel(), y_masked.numel());
  for (std::size_t i = 0; i < y_masked.numel(); ++i) {
    EXPECT_NEAR(y_mixed[i], y_masked[i], 1e-4F);
  }
}

TEST(Supernet, ForwardLogitsShape) {
  Rng rng(8);
  SupernetConfig cfg = small_cfg();
  Supernet net(cfg, rng);
  Mask mask = random_mask(net.num_edges(), rng);
  Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  Tensor logits = net.forward(x, mask, false);
  EXPECT_EQ(logits.dim(0), 2);
  EXPECT_EQ(logits.dim(1), 10);
}

TEST(Supernet, MaskedParamsSubsetAndShared) {
  Rng rng(9);
  SupernetConfig cfg = small_cfg();
  Supernet net(cfg, rng);
  Mask m1 = random_mask(net.num_edges(), rng);
  auto ids1 = net.masked_param_ids(m1);
  EXPECT_GT(ids1.size(), 0u);
  EXPECT_LT(ids1.size(), net.params().size());
  // Different masks share the stem/preprocess/classifier ids.
  Mask m2 = random_mask(net.num_edges(), rng);
  auto ids2 = net.masked_param_ids(m2);
  std::set<std::size_t> s1(ids1.begin(), ids1.end());
  int common = 0;
  for (auto id : ids2) {
    if (s1.count(id)) ++common;
  }
  EXPECT_GT(common, 0);
}

TEST(Supernet, SubmodelMuchSmallerThanSupernet) {
  // The paper's headline efficiency claim: a sub-model is roughly 1/N of
  // the supernet (shared stem/classifier keep it above exactly 1/8).
  Rng rng(10);
  SupernetConfig cfg;
  cfg.num_cells = 4;
  cfg.num_nodes = 3;
  cfg.stem_channels = 8;
  Supernet net(cfg, rng);
  Mask mask = random_mask(net.num_edges(), rng);
  const double ratio = static_cast<double>(net.submodel_bytes(mask)) /
                       static_cast<double>(net.supernet_bytes());
  EXPECT_LT(ratio, 0.45);
  EXPECT_GT(ratio, 0.02);
}

TEST(Supernet, GatherScatterRoundTrip) {
  Rng rng(11);
  Supernet net(small_cfg(), rng);
  Mask mask = random_mask(net.num_edges(), rng);
  auto ids = net.masked_param_ids(mask);
  std::vector<float> vals = net.gather_values(ids);
  for (auto& v : vals) v += 0.25F;
  net.scatter_values(ids, vals);
  std::vector<float> vals2 = net.gather_values(ids);
  EXPECT_EQ(vals, vals2);
}

TEST(Supernet, GatherFromFlatMatchesGatherValues) {
  Rng rng(12);
  Supernet net(small_cfg(), rng);
  Mask mask = random_mask(net.num_edges(), rng);
  auto ids = net.masked_param_ids(mask);
  std::vector<float> direct = net.gather_values(ids);
  std::vector<float> flat = net.flat_values();
  std::vector<float> via_flat = net.gather_from_flat(flat, ids);
  EXPECT_EQ(direct, via_flat);
}

TEST(Supernet, FlatRoundTrip) {
  Rng rng(13);
  Supernet net(small_cfg(), rng);
  std::vector<float> flat = net.flat_values();
  EXPECT_EQ(flat.size(), net.param_count());
  for (auto& v : flat) v *= 2.0F;
  net.set_flat_values(flat);
  EXPECT_EQ(net.flat_values(), flat);
}

TEST(Supernet, BackwardOnlyTouchesMaskedOps) {
  Rng rng(14);
  Supernet net(small_cfg(), rng);
  Mask mask = random_mask(net.num_edges(), rng);
  net.zero_grad();
  Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  Tensor logits = net.forward(x, mask, true);
  CrossEntropyResult ce = cross_entropy(logits, {0, 1});
  net.backward(ce.grad_logits);
  // Gradients outside the masked subset must be exactly zero.
  auto ids = net.masked_param_ids(mask);
  std::set<std::size_t> in_mask(ids.begin(), ids.end());
  const auto& params = net.params();
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!in_mask.count(i)) {
      EXPECT_FLOAT_EQ(params[i]->grad.l2_norm(), 0.0F) << "param " << i;
    }
  }
  // And at least some masked gradients are non-zero.
  float masked_norm = 0.0F;
  for (auto id : ids) masked_norm += params[id]->grad.l2_norm();
  EXPECT_GT(masked_norm, 0.0F);
}

// zero_grads(ids) is all a masked step needs: with every gradient a NaN
// canary, zeroing only the carried tensors leaves the rest untouched
// through a masked forward and backward, and the carried gradients equal
// those of the same step after a full zero_grad(). The first kNumOps
// masks put every op on every edge of both cell kinds; the rest are
// random.
TEST(Supernet, ZeroGradsOfTheCarriedTensorsIsEnough) {
  constexpr float kCanary = std::numeric_limits<float>::quiet_NaN();
  Rng init_a(16);
  Rng init_b(16);
  Supernet net(small_cfg(), init_a);
  Supernet ref(small_cfg(), init_b);
  Rng rng(17);
  const int edges = net.num_edges();
  std::set<std::pair<bool, int>> covered;  // (reduction, op) trained
  for (int m = 0; m < kNumOps + 12; ++m) {
    Mask mask = random_mask(edges, rng);
    if (m < kNumOps) {
      for (int e = 0; e < edges; ++e) {
        mask.normal[static_cast<std::size_t>(e)] = (m + e) % kNumOps;
        mask.reduce[static_cast<std::size_t>(e)] = (m + 2 * e) % kNumOps;
      }
    }
    for (int e = 0; e < edges; ++e) {
      covered.insert({false, mask.normal[static_cast<std::size_t>(e)]});
      covered.insert({true, mask.reduce[static_cast<std::size_t>(e)]});
    }
    const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
    const std::vector<int> labels = {rng.randint(0, 9), rng.randint(0, 9)};
    const std::vector<std::size_t> ids = net.masked_param_ids(mask);

    for (Param* p : net.params()) p->grad.fill(kCanary);
    net.zero_grads(ids);
    net.backward(cross_entropy(net.forward(x, mask, true), labels).grad_logits);

    ref.zero_grad();
    ref.backward(cross_entropy(ref.forward(x, mask, true), labels).grad_logits);

    const std::set<std::size_t> carried(ids.begin(), ids.end());
    for (std::size_t i = 0; i < net.params().size(); ++i) {
      if (carried.count(i) != 0) continue;
      for (const float g : net.params()[i]->grad.vec()) {
        ASSERT_TRUE(std::isnan(g)) << "mask " << m << " param " << i;
      }
    }
    const std::vector<float> got = net.gather_grads(ids);
    const std::vector<float> want = ref.gather_grads(ids);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
              0)
        << "mask " << m;
  }
  EXPECT_EQ(covered.size(), 2U * kNumOps);
}

TEST(Genotype, DiscretizePicksArgmaxNonZeroOp) {
  const int nodes = 2;
  const int edges = Cell::num_edges(nodes);
  AlphaTable alpha(static_cast<std::size_t>(edges));
  for (auto& row : alpha) row.fill(0.0F);
  // Make "none" dominant everywhere but op 4 second: discretize must skip
  // the zero op and pick op 4.
  for (auto& row : alpha) {
    row[0] = 5.0F;
    row[4] = 2.0F;
  }
  Genotype g = discretize(alpha, alpha, nodes);
  EXPECT_EQ(g.normal.size(), 4u);
  for (const auto& e : g.normal) {
    EXPECT_EQ(e.op, OpType::kSepConv3);
  }
}

TEST(Genotype, DiscretizeKeepsTwoEdgesPerNode) {
  const int nodes = 3;
  const int edges = Cell::num_edges(nodes);
  AlphaTable alpha(static_cast<std::size_t>(edges));
  Rng rng(15);
  for (auto& row : alpha) {
    for (auto& v : row) v = rng.normal();
  }
  Genotype g = discretize(alpha, alpha, nodes);
  EXPECT_EQ(g.normal.size(), 6u);
  EXPECT_EQ(g.reduce.size(), 6u);
  // Inputs must be valid for each node.
  for (int node = 0; node < nodes; ++node) {
    for (int k = 0; k < 2; ++k) {
      const auto& e = g.normal[static_cast<std::size_t>(2 * node + k)];
      EXPECT_GE(e.input, 0);
      EXPECT_LT(e.input, 2 + node);
    }
  }
}

TEST(DiscreteNet, ForwardBackwardAndParamCount) {
  Rng rng(16);
  SupernetConfig cfg = small_cfg();
  const int edges = Cell::num_edges(cfg.num_nodes);
  AlphaTable alpha(static_cast<std::size_t>(edges));
  for (auto& row : alpha) {
    for (auto& v : row) v = rng.normal();
  }
  Genotype g = discretize(alpha, alpha, cfg.num_nodes);
  DiscreteNet net(g, cfg, rng);
  EXPECT_GT(net.param_count(), 0u);
  Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  Tensor logits = net.forward(x, true);
  EXPECT_EQ(logits.dim(1), 10);
  CrossEntropyResult ce = cross_entropy(logits, {3, 7});
  net.backward(ce.grad_logits);
  float gnorm = 0.0F;
  for (Param* p : net.params()) gnorm += p->grad.l2_norm();
  EXPECT_GT(gnorm, 0.0F);
}

TEST(DiscreteNet, SmallerThanSupernet) {
  Rng rng(17);
  SupernetConfig cfg = small_cfg();
  Supernet supernet(cfg, rng);
  const int edges = Cell::num_edges(cfg.num_nodes);
  AlphaTable alpha(static_cast<std::size_t>(edges));
  for (auto& row : alpha) row.fill(0.0F);
  Genotype g = discretize(alpha, alpha, cfg.num_nodes);
  DiscreteNet net(g, cfg, rng);
  EXPECT_LT(net.param_count(), supernet.param_count());
}

}  // namespace
}  // namespace fms
