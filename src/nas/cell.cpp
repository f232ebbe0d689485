#include "src/nas/cell.h"

#include "src/tensor/ops.h"

namespace fms {
namespace {

// dst = src when dst is still empty (moving an rvalue), dst += src after.
template <typename T>
void accumulate(Tensor& dst, T&& src) {
  if (dst.empty()) {
    dst = std::forward<T>(src);
  } else {
    dst += src;
  }
}

}  // namespace

std::vector<CellSpec> cell_specs(const SupernetConfig& cfg) {
  std::vector<CellSpec> specs;
  int c_prev_prev = cfg.stem_channels;
  int c_prev = cfg.stem_channels;
  int c = cfg.stem_channels;
  bool reduction_prev = false;
  for (int i = 0; i < cfg.num_cells; ++i) {
    const bool reduction =
        cfg.num_cells >= 3 &&
        (i == cfg.num_cells / 3 || i == 2 * cfg.num_cells / 3);
    if (reduction) c *= 2;
    specs.push_back(
        {cfg.num_nodes, c_prev_prev, c_prev, c, reduction, reduction_prev});
    reduction_prev = reduction;
    c_prev_prev = c_prev;
    c_prev = cfg.num_nodes * c;
  }
  return specs;
}

Cell::Cell(const CellSpec& spec, Rng& rng) : spec_(spec) {
  build_preprocessing(rng);
  for (int node = 0; node < spec.nodes; ++node) {
    for (int input = 0; input < 2 + node; ++input) {
      Edge& e = edges_.emplace_back(Edge{node, input, {}});
      for (int o = 0; o < kNumOps; ++o) {
        e.ops[static_cast<std::size_t>(o)] = make_candidate_op(
            static_cast<OpType>(o), spec.c, edge_stride(spec, input), rng);
      }
    }
  }
}

Cell::Cell(const Genotype& genotype, const CellSpec& spec, Rng& rng)
    : spec_(spec) {
  FMS_CHECK(spec.nodes == genotype.nodes);
  build_preprocessing(rng);
  const auto& chosen = spec.reduction ? genotype.reduce : genotype.normal;
  FMS_CHECK(chosen.size() == static_cast<std::size_t>(2 * spec.nodes));
  for (std::size_t k = 0; k < chosen.size(); ++k) {
    const int node = static_cast<int>(k / 2);
    const GenotypeEdge& ge = chosen[k];
    FMS_CHECK(ge.input >= 0 && ge.input < 2 + node);
    const int o = static_cast<int>(ge.op);
    Edge& e = edges_.emplace_back(Edge{node, ge.input, {}});
    e.ops[static_cast<std::size_t>(o)] =
        make_candidate_op(ge.op, spec.c, edge_stride(spec, ge.input), rng);
    active_.push_back(o);
  }
}

void Cell::build_preprocessing(Rng& rng) {
  pre0_ = spec_.reduction_prev
              ? make_factorized_reduce(spec_.c_prev_prev, spec_.c, rng)
              : make_relu_conv_bn(spec_.c_prev_prev, spec_.c, 1, 1, 0, rng);
  pre1_ = make_relu_conv_bn(spec_.c_prev, spec_.c, 1, 1, 0, rng);
}

int Cell::edge_index(int node, int input) const {
  FMS_CHECK(node >= 0 && node < spec_.nodes && input >= 0 && input < 2 + node);
  // Edges of nodes 0..node-1 occupy sum_{i<node}(2+i) slots.
  return node * (node + 3) / 2 + input;
}

Module& Cell::op(std::size_t k, int o) {
  FMS_CHECK(o >= 0 && o < kNumOps);
  Module* m = edges_[k].ops[static_cast<std::size_t>(o)].get();
  FMS_CHECK_MSG(m != nullptr, "op " << o << " not built on edge " << k);
  return *m;
}

Tensor Cell::run(const Tensor& s0, const Tensor& s1, bool train,
                 const EdgeForward& edge) {
  std::vector<Tensor> states;
  states.push_back(pre0_->forward(s0, train));
  states.push_back(pre1_->forward(s1, train));
  for (std::size_t k = 0; k < edges_.size(); ++k) {
    const Edge& e = edges_[k];
    // edges_ is node-major: the first edge of a node opens its state.
    if (states.size() == static_cast<std::size_t>(2 + e.node)) {
      states.emplace_back();
    }
    edge(k, states[static_cast<std::size_t>(e.input)], states.back());
  }
  has_cache_ = train;
  state_shapes_.resize(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    state_shapes_[i] = states[i].shape();
  }
  states.erase(states.begin(), states.begin() + 2);
  return concat_channels(states);
}

std::pair<Tensor, Tensor> Cell::run_backward(const Tensor& grad_out,
                                             const EdgeBackward& edge) {
  std::vector<Tensor> node_grads = split_channels(grad_out, spec_.nodes);
  std::vector<Tensor> grad_states;
  for (const std::vector<int>& shape : state_shapes_) {
    grad_states.emplace_back(shape);
  }
  for (int node = 0; node < spec_.nodes; ++node) {
    grad_states[static_cast<std::size_t>(2 + node)] +=
        node_grads[static_cast<std::size_t>(node)];
  }
  for (int node = spec_.nodes - 1; node >= 0; --node) {
    const Tensor& g = grad_states[static_cast<std::size_t>(2 + node)];
    for (std::size_t k = 0; k < edges_.size(); ++k) {
      if (edges_[k].node != node) continue;
      edge(k, g, grad_states[static_cast<std::size_t>(edges_[k].input)]);
    }
  }
  Tensor g0 = pre0_->backward(grad_states[0]);
  Tensor g1 = pre1_->backward(grad_states[1]);
  has_cache_ = false;
  return {std::move(g0), std::move(g1)};
}

Tensor Cell::forward(const Tensor& s0, const Tensor& s1,
                     const std::vector<int>& mask, bool train) {
  FMS_CHECK(static_cast<int>(mask.size()) == num_edges() &&
            mask.size() == edges_.size());
  // Reject an out-of-range or unbuilt op before any cache changes.
  for (std::size_t k = 0; k < mask.size(); ++k) op(k, mask[k]);
  active_ = mask;
  return forward(s0, s1, train);
}

Tensor Cell::forward(const Tensor& s0, const Tensor& s1, bool train) {
  FMS_CHECK_MSG(active_.size() == edges_.size(),
                "Cell::forward without a mask or genotype");
  mixed_mode_ = false;
  return run(s0, s1, train, [&](std::size_t k, const Tensor& in, Tensor& sum) {
    accumulate(sum, op(k, active_[k]).forward(in, train));
  });
}

std::pair<Tensor, Tensor> Cell::backward(const Tensor& grad_out) {
  FMS_CHECK_MSG(has_cache_ && !mixed_mode_,
                "Cell::backward without masked train forward");
  return run_backward(grad_out,
                      [&](std::size_t k, const Tensor& g, Tensor& grad_in) {
                        grad_in += op(k, active_[k]).backward(g);
                      });
}

Tensor Cell::forward_mixed(const Tensor& s0, const Tensor& s1,
                           const EdgeWeights& weights, bool train) {
  FMS_CHECK(static_cast<int>(weights.size()) == num_edges() &&
            weights.size() == edges_.size());
  cached_weights_ = weights;
  mixed_mode_ = true;
  mixed_outputs_.assign(edges_.size(), {});
  return run(s0, s1, train, [&](std::size_t k, const Tensor& in, Tensor& sum) {
    for (int o = 0; o < kNumOps; ++o) {
      Tensor y = op(k, o).forward(in, train);
      if (sum.empty()) sum = Tensor(y.shape());
      Tensor scaled = y;
      scaled *= weights[k][static_cast<std::size_t>(o)];
      sum += scaled;
      if (train) mixed_outputs_[k][static_cast<std::size_t>(o)] = std::move(y);
    }
  });
}

std::pair<Tensor, Tensor> Cell::backward_mixed(const Tensor& grad_out,
                                               EdgeWeights& grad_weights) {
  FMS_CHECK_MSG(has_cache_ && mixed_mode_,
                "Cell::backward_mixed without mixed train forward");
  FMS_CHECK(static_cast<int>(grad_weights.size()) == num_edges());
  return run_backward(grad_out, [&](std::size_t k, const Tensor& g,
                                    Tensor& grad_in) {
    for (int o = 0; o < kNumOps; ++o) {
      const auto oi = static_cast<std::size_t>(o);
      const Tensor& y = mixed_outputs_[k][oi];
      // dL/dw_e,o = <grad_node, op_output>
      double dot = 0.0;
      for (std::size_t i = 0; i < y.numel(); ++i) dot += g[i] * y[i];
      grad_weights[k][oi] += static_cast<float>(dot);
      Tensor g_op = g;
      g_op *= cached_weights_[k][oi];
      grad_in += op(k, o).backward(g_op);
    }
  });
}

void Cell::collect_params(std::vector<Param*>& out) {
  collect_shared_params(out);
  for (auto& e : edges_) {
    for (auto& m : e.ops) {
      if (m) m->collect_params(out);
    }
  }
}

void Cell::collect_shared_params(std::vector<Param*>& out) {
  pre0_->collect_params(out);
  pre1_->collect_params(out);
}

void Cell::collect_op_params(int edge, int o, std::vector<Param*>& out) {
  FMS_CHECK(edge >= 0 && static_cast<std::size_t>(edge) < edges_.size());
  op(static_cast<std::size_t>(edge), o).collect_params(out);
}

CellStack::CellStack(const SupernetConfig& cfg, const Genotype* genotype,
                     Rng& rng) {
  FMS_CHECK(cfg.num_cells >= 1 && cfg.num_nodes >= 1);
  // Stem: 3x3 conv + BN to stem_channels.
  auto seq = std::make_unique<Sequential>();
  seq->add(std::make_unique<Conv2d>(cfg.image_channels, cfg.stem_channels, 3,
                                    Conv2dSpec{1, 1, 1, 1}, rng));
  seq->add(std::make_unique<BatchNorm2d>(cfg.stem_channels));
  stem = std::move(seq);
  int c_out = cfg.stem_channels;
  for (const CellSpec& spec : cell_specs(cfg)) {
    cells.push_back(genotype ? std::make_unique<Cell>(*genotype, spec, rng)
                             : std::make_unique<Cell>(spec, rng));
    c_out = cells.back()->out_channels();
  }
  gap = std::make_unique<GlobalAvgPool>();
  classifier = std::make_unique<Linear>(c_out, cfg.num_classes, rng);
}

Tensor CellStack::forward(const Tensor& x, bool train,
                          const CellForward& step) {
  // The first cell reads the stem's output as both of its inputs.
  Tensor s_p = stem->forward(x, train);
  Tensor s_pp;
  for (auto& cell : cells) {
    Tensor out = step(*cell, s_pp.empty() ? s_p : s_pp, s_p);
    s_pp = std::move(s_p);
    s_p = std::move(out);
  }
  Tensor pooled = gap->forward(s_p, train);
  return classifier->forward(pooled, train);
}

void CellStack::backward(const Tensor& grad_logits, const CellBackward& step) {
  Tensor g = classifier->backward(grad_logits);
  g = gap->backward(g);
  std::vector<Tensor> gstate(cells.size() + 2);
  accumulate(gstate[cells.size() + 1], std::move(g));
  for (std::size_t i = cells.size(); i-- > 0;) {
    auto [g0, g1] = step(*cells[i], gstate[i + 2]);
    accumulate(gstate[i], std::move(g0));
    accumulate(gstate[i + 1], std::move(g1));
  }
  Tensor stem_grad = std::move(gstate[0]);
  stem_grad += gstate[1];
  stem->backward(stem_grad);
}

}  // namespace fms
