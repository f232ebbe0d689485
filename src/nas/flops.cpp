#include "src/nas/flops.h"

namespace fms {
namespace {

// MACs of a conv layer: cout * cin/groups * k^2 * out_hw^2.
std::uint64_t conv_macs(int cin, int cout, int k, int out_hw, int groups) {
  return static_cast<std::uint64_t>(cout) *
         static_cast<std::uint64_t>(cin / groups) *
         static_cast<std::uint64_t>(k) * k * out_hw * out_hw;
}

// BN and ReLU are counted as one MAC-equivalent per output element.
std::uint64_t elementwise_macs(int channels, int hw) {
  return static_cast<std::uint64_t>(channels) * hw * hw;
}

// Cell preprocessing: pre0 (factorized reduce after a reduction cell, a
// 1x1 conv otherwise) and pre1 (1x1 conv), each + BN, both landing on
// (c, hw) at the cell's input resolution.
std::uint64_t preprocess_macs(const CellSpec& s, int hw) {
  return conv_macs(s.c_prev_prev, s.c, 1, hw, 1) + elementwise_macs(s.c, hw) +
         conv_macs(s.c_prev, s.c, 1, hw, 1) + elementwise_macs(s.c, hw);
}

// Sums MACs over the stack cell_specs(cfg) lays out, the schedule
// Supernet and DiscreteNet are built from, charging each cell's (node,
// input) edges `edge_cost(spec, edge_index, node, input, hw, stride)`.
template <typename EdgeCost>
std::uint64_t stacked_macs(const SupernetConfig& cfg, EdgeCost edge_cost) {
  std::uint64_t macs = 0;
  int hw = cfg.image_size;
  // Stem conv 3x3 + BN.
  macs += conv_macs(cfg.image_channels, cfg.stem_channels, 3, hw, 1);
  macs += elementwise_macs(cfg.stem_channels, hw);
  int c_out = cfg.stem_channels;
  for (const CellSpec& s : cell_specs(cfg)) {
    const int hw_out = s.reduction ? hw / 2 : hw;
    macs += preprocess_macs(s, hw);
    int e = 0;
    for (int node = 0; node < s.nodes; ++node) {
      for (int input = 0; input < 2 + node; ++input, ++e) {
        const int stride = edge_stride(s, input);
        macs += edge_cost(s, e, node, input, stride == 2 ? hw : hw_out,
                          stride);
      }
    }
    hw = hw_out;
    c_out = s.nodes * s.c;
  }
  // Classifier: global average pool + linear.
  macs += static_cast<std::uint64_t>(c_out) * hw * hw;
  macs += static_cast<std::uint64_t>(c_out) * cfg.num_classes;
  return macs;
}

}  // namespace

std::uint64_t op_macs(OpType op, int channels, int hw, int stride) {
  const int out_hw = hw / stride;
  switch (op) {
    case OpType::kZero:
      return 0;
    case OpType::kIdentity:
      if (stride == 1) return 0;
      // Factorized reduce: 1x1 conv stride 2 + BN.
      return conv_macs(channels, channels, 1, out_hw, 1) +
             elementwise_macs(channels, out_hw);
    case OpType::kMaxPool3:
    case OpType::kAvgPool3:
      // 3x3 window comparisons/adds per output + BN.
      return 9ULL * elementwise_macs(channels, out_hw) +
             elementwise_macs(channels, out_hw);
    case OpType::kSepConv3:
    case OpType::kSepConv5: {
      const int k = op == OpType::kSepConv3 ? 3 : 5;
      // Applied twice: (dw kxk + pw 1x1 + BN) with stride, then stride 1.
      std::uint64_t macs = 0;
      macs += conv_macs(channels, channels, k, out_hw, channels);
      macs += conv_macs(channels, channels, 1, out_hw, 1);
      macs += elementwise_macs(channels, out_hw);
      macs += conv_macs(channels, channels, k, out_hw, channels);
      macs += conv_macs(channels, channels, 1, out_hw, 1);
      macs += elementwise_macs(channels, out_hw);
      return macs;
    }
    case OpType::kDilConv3:
    case OpType::kDilConv5: {
      const int k = op == OpType::kDilConv3 ? 3 : 5;
      return conv_macs(channels, channels, k, out_hw, channels) +
             conv_macs(channels, channels, 1, out_hw, 1) +
             elementwise_macs(channels, out_hw);
    }
  }
  return 0;
}

std::uint64_t submodel_macs(const SupernetConfig& cfg, const Mask& mask) {
  FMS_CHECK(static_cast<int>(mask.normal.size()) ==
            Cell::num_edges(cfg.num_nodes));
  return stacked_macs(cfg, [&](const CellSpec& s, int e, int, int, int hw,
                               int stride) {
    const auto& m = s.reduction ? mask.reduce : mask.normal;
    return op_macs(static_cast<OpType>(m[static_cast<std::size_t>(e)]), s.c,
                   hw, stride);
  });
}

std::uint64_t supernet_mixed_macs(const SupernetConfig& cfg) {
  return stacked_macs(cfg, [](const CellSpec& s, int, int, int, int hw,
                              int stride) {
    std::uint64_t macs = 0;
    for (int op = 0; op < kNumOps; ++op) {
      macs += op_macs(static_cast<OpType>(op), s.c, hw, stride);
    }
    return macs;
  });
}

std::uint64_t genotype_macs(const SupernetConfig& cfg, const Genotype& g) {
  FMS_CHECK(g.nodes == cfg.num_nodes);
  return stacked_macs(cfg, [&](const CellSpec& s, int, int node, int input,
                               int hw, int stride) {
    // A genotype keeps 2 edges per node: charge the ones reading `input`.
    const auto& edges = s.reduction ? g.reduce : g.normal;
    std::uint64_t macs = 0;
    for (int k = 0; k < 2; ++k) {
      const GenotypeEdge& ge = edges[static_cast<std::size_t>(2 * node + k)];
      if (ge.input == input) macs += op_macs(ge.op, s.c, hw, stride);
    }
    return macs;
  });
}

}  // namespace fms
