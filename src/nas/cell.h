// A DARTS cell: a DAG with two input nodes (outputs of the two preceding
// cells), `nodes` intermediate nodes, and an output that concatenates all
// intermediate nodes. The cell holds a node-major list of edges, each an
// (intermediate node, input state) pair with its candidate operations:
//
//  * a supernet cell has every (node, earlier-state) edge with all 8
//    candidate ops; which op runs is chosen per call, by forward(...,
//    mask) (one op per edge: the sampled sub-model, the only mode the
//    paper's method ever ships to a participant) or by forward_mixed(...)
//    (probability-weighted sum over ops: the DARTS / FedNAS baselines,
//    which pay the full supernet cost);
//  * a genotype cell has the genotype's two edges per node, in genotype
//    order, each with only its chosen op (what phase P3 retrains).
//
// Both kinds run through one executor: a node sums its active edges'
// outputs in list order; the backward visits nodes in reverse and each
// node's edges in list order again.
//
// CellStack is the network around the cells, shared by Supernet and
// DiscreteNet: stem -> cells as cell_specs() lays them out -> global
// average pool -> linear classifier.
#pragma once

#include <array>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/config.h"
#include "src/nas/genotype.h"
#include "src/nas/ops.h"

namespace fms {

struct CellSpec {
  int nodes = 3;         // intermediate nodes
  int c_prev_prev = 8;   // channels of cell k-2 output
  int c_prev = 8;        // channels of cell k-1 output
  int c = 8;             // operating channels of this cell
  bool reduction = false;
  bool reduction_prev = false;
};

// The stack schedule: one spec per cell, with reduction cells (doubled
// channels, halved resolution) at 1/3 and 2/3 depth.
std::vector<CellSpec> cell_specs(const SupernetConfig& cfg);

// Stride of an edge reading state `input`: reduction cells stride only
// the edges fed by the cell inputs.
inline int edge_stride(const CellSpec& spec, int input) {
  return (spec.reduction && input < 2) ? 2 : 1;
}

using EdgeWeights = std::vector<std::array<float, kNumOps>>;

class Cell {
 public:
  // Supernet cell: every edge with all candidate ops.
  Cell(const CellSpec& spec, Rng& rng);
  // Genotype cell: the genotype's edges, each with only its chosen op.
  Cell(const Genotype& genotype, const CellSpec& spec, Rng& rng);

  // Edges for `nodes` intermediate nodes: node i has (2 + i) inputs.
  static int num_edges(int nodes) {
    return nodes * (nodes + 3) / 2;  // sum_{i=0}^{nodes-1} (2 + i)
  }
  int num_edges() const { return num_edges(spec_.nodes); }
  int out_channels() const { return spec_.nodes * spec_.c; }
  const CellSpec& spec() const { return spec_; }

  // Returns the flat edge index of (node i, input state j).
  int edge_index(int node, int input) const;

  // --- sub-model mode (supernet cells) ---
  Tensor forward(const Tensor& s0, const Tensor& s1,
                 const std::vector<int>& mask, bool train);
  // Runs the active ops: a genotype cell's own, or the last mask's.
  Tensor forward(const Tensor& s0, const Tensor& s1, bool train);
  // Gradients w.r.t. (s0, s1) of the last masked or genotype forward.
  std::pair<Tensor, Tensor> backward(const Tensor& grad_out);

  // --- mixed (continuous relaxation) mode (supernet cells) ---
  Tensor forward_mixed(const Tensor& s0, const Tensor& s1,
                       const EdgeWeights& weights, bool train);
  // Also accumulates dLoss/dWeight into grad_weights.
  std::pair<Tensor, Tensor> backward_mixed(const Tensor& grad_out,
                                           EdgeWeights& grad_weights);

  // All parameters: pre0, pre1, then ops in edge-major, op-minor order.
  void collect_params(std::vector<Param*>& out);
  // Parameters of the preprocessing layers only (always part of a
  // sub-model).
  void collect_shared_params(std::vector<Param*>& out);
  // Parameters of a single candidate op.
  void collect_op_params(int edge, int op, std::vector<Param*>& out);

 private:
  struct Edge {
    int node;
    int input;
    std::array<std::unique_ptr<Module>, kNumOps> ops;  // null if not built
  };
  // One edge's forward step: reads its input state, adds into the node.
  using EdgeForward = std::function<void(std::size_t k, const Tensor& in,
                                         Tensor& node_sum)>;
  // One edge's backward step: reads the node's gradient, adds into the
  // gradient of the edge's input state.
  using EdgeBackward = std::function<void(std::size_t k, const Tensor& g,
                                          Tensor& grad_in)>;

  void build_preprocessing(Rng& rng);
  Module& op(std::size_t k, int o);
  Tensor run(const Tensor& s0, const Tensor& s1, bool train,
             const EdgeForward& edge);
  std::pair<Tensor, Tensor> run_backward(const Tensor& grad_out,
                                         const EdgeBackward& edge);

  CellSpec spec_;
  std::unique_ptr<Module> pre0_;
  std::unique_ptr<Module> pre1_;
  std::vector<Edge> edges_;  // node-major

  // Caches for backward.
  std::vector<Tensor> states_;
  std::vector<int> active_;  // the op each edge runs in sub-model mode
  EdgeWeights cached_weights_;
  // Mixed mode: per-edge per-op outputs, for dL/dweight.
  std::vector<std::array<Tensor, kNumOps>> mixed_outputs_;
  bool mixed_mode_ = false;
  bool has_cache_ = false;
};

struct CellStack {
  using CellForward =
      std::function<Tensor(Cell&, const Tensor& s0, const Tensor& s1)>;
  using CellBackward =
      std::function<std::pair<Tensor, Tensor>(Cell&, const Tensor& grad)>;

  // Draws from rng in build order: stem, cells, classifier. Supernet
  // cells when `genotype` is null, genotype cells otherwise.
  CellStack(const SupernetConfig& cfg, const Genotype* genotype, Rng& rng);

  // stem -> each cell's `step` on the two preceding states -> GAP ->
  // classifier.
  Tensor forward(const Tensor& x, bool train, const CellForward& step);
  // Backpropagates dLoss/dLogits, calling `step` on the cells in reverse.
  void backward(const Tensor& grad_logits, const CellBackward& step);

  std::unique_ptr<Module> stem;
  std::vector<std::unique_ptr<Cell>> cells;
  std::unique_ptr<GlobalAvgPool> gap;
  std::unique_ptr<Linear> classifier;
};

}  // namespace fms
