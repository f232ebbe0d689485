// The supernet: stem -> stacked cells (reduction at 1/3 and 2/3 depth)
// -> global average pool -> linear classifier. Holds the weights theta of
// *all* candidate operations; sub-models select one op per edge via a Mask.
//
// The class also provides the flat-parameter plumbing the federated layer
// needs: a deterministic enumeration of all parameters, the index subset a
// given mask selects (= what is actually shipped to a participant), and
// serialized payload sizes in bytes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/config.h"
#include "src/nas/cell.h"

namespace fms {

// One-hot op choice per edge, for the normal and the reduction cell
// template (alpha — and hence the mask — is shared across cells of the
// same type, as in DARTS/ENAS).
struct Mask {
  std::vector<int> normal;
  std::vector<int> reduce;
};

class Supernet {
 public:
  Supernet(const SupernetConfig& cfg, Rng& rng);

  Supernet(const Supernet&) = delete;
  Supernet& operator=(const Supernet&) = delete;

  const SupernetConfig& config() const { return cfg_; }
  int num_edges() const { return Cell::num_edges(cfg_.num_nodes); }
  int num_cells() const { return static_cast<int>(stack_.cells.size()); }

  // --- sub-model (masked) mode: what participants actually run ---
  Tensor forward(const Tensor& x, const Mask& mask, bool train);
  // Backpropagates from dLoss/dLogits; parameter grads accumulate in place.
  void backward(const Tensor& grad_logits);

  // --- mixed mode: continuous relaxation for DARTS/FedNAS baselines ---
  Tensor forward_mixed(const Tensor& x, const EdgeWeights& w_normal,
                       const EdgeWeights& w_reduce, bool train);
  void backward_mixed(const Tensor& grad_logits, EdgeWeights& gw_normal,
                      EdgeWeights& gw_reduce);

  // --- parameter plumbing ---
  const std::vector<Param*>& params();
  void zero_grad();
  // Zeroes the gradients of the selected params only (ids from
  // masked_param_ids): all a masked step needs, since its backward writes
  // only those tensors' gradients.
  void zero_grads(const std::vector<std::size_t>& ids);

  // Indices (into params()) of the parameters a mask selects: stem, cell
  // preprocessors, classifier, and exactly one op per edge per cell.
  std::vector<std::size_t> masked_param_ids(const Mask& mask) const;

  // Flat copies across the masked subset (ids from masked_param_ids).
  std::vector<float> gather_values(const std::vector<std::size_t>& ids) const;
  std::vector<float> gather_grads(const std::vector<std::size_t>& ids);
  void scatter_values(const std::vector<std::size_t>& ids,
                      const std::vector<float>& flat);
  // Adds `flat` into the .grad of the selected params.
  void scatter_add_grads(const std::vector<std::size_t>& ids,
                         const std::vector<float>& flat);

  // Whole-net flat snapshot (used by the staleness memory pool).
  std::vector<float> flat_values();
  void set_flat_values(const std::vector<float>& flat);
  // Gathers the masked subset out of a whole-net flat snapshot — lets the
  // delay-compensated update read stale sub-model weights out of the
  // memory pool without materializing a stale supernet.
  std::vector<float> gather_from_flat(
      const std::vector<float>& flat,
      const std::vector<std::size_t>& ids) const;
  // Inverse of gather_from_flat for gradients: scatters a masked flat
  // vector into a dense whole-net vector, exact zero elsewhere, and its
  // companion presence mask (1 over the coordinates `ids` select). The
  // search round hands the robust aggregators the masked (ids, grads)
  // instead (agg::aggregate_masked); these two remain only for the
  // end-to-end benchmark's probe (fms_benchmark/), and go with the next
  // change to that benchmark.
  std::vector<float> dense_from_masked(const std::vector<std::size_t>& ids,
                                       const std::vector<float>& flat) const;
  std::vector<std::uint8_t> presence_from_masked(
      const std::vector<std::size_t>& ids) const;
  // Adds a dense whole-net flat vector into every param's .grad (the
  // aggregated-gradient commit path).
  void add_flat_grads(const std::vector<float>& flat);

  std::size_t param_count() const;
  std::size_t param_count_masked(const Mask& mask) const;
  // Serialized payload sizes (float32 values + mask bookkeeping).
  std::size_t supernet_bytes() const;
  std::size_t submodel_bytes(const Mask& mask) const;

 private:
  struct ParamTag {
    bool shared = true;  // stem / preprocessing / classifier
    bool reduction = false;
    int edge = -1;
    int op = -1;
  };

  void build_param_index();
  // Total elements of the selected params: the exact size of a gather,
  // reserved up front so a payload holds no spare capacity while it is in
  // flight.
  std::size_t numel_of(const std::vector<std::size_t>& ids) const;

  SupernetConfig cfg_;
  CellStack stack_;

  std::vector<Param*> params_;
  std::vector<ParamTag> tags_;
  std::vector<std::size_t> offsets_;  // offset of each param in flat layout

  // Backward caches.
  bool has_cache_ = false;
  bool mixed_mode_ = false;
};

// Samples a uniformly random mask (used for warm-up and tests).
Mask random_mask(int num_edges, Rng& rng);

}  // namespace fms
