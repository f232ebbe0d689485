// Analytic multiply-accumulate (MAC) counting for candidate operations,
// sub-models, and genotypes.
//
// The federated scheduler and the Table V cost model need per-model
// compute estimates *without running the model* — the server must reason
// about a sub-model's cost before dispatching it. Counts follow the
// standard conv MAC formula (Cout * Cin/g * k^2 * Hout * Wout) and include
// the stem, cell preprocessing, and classifier. Every count walks
// cell_specs(cfg), the schedule Supernet and DiscreteNet are built from.
#pragma once

#include <cstdint>

#include "src/common/config.h"
#include "src/nas/genotype.h"
#include "src/nas/supernet.h"

namespace fms {

// MACs of one candidate op instance on a (channels, hw, hw) feature map
// with the given stride.
std::uint64_t op_macs(OpType op, int channels, int hw, int stride);

// MACs of one forward pass (batch size 1) of a sub-model selected by
// `mask` from a supernet with configuration `cfg`.
std::uint64_t submodel_macs(const SupernetConfig& cfg, const Mask& mask);

// MACs of one forward pass (batch size 1) of a discretized genotype
// stacked per `cfg`.
std::uint64_t genotype_macs(const SupernetConfig& cfg, const Genotype& g);

// MACs of one *mixed-mode* forward pass (every candidate op on every edge
// runs and is weighted) — what FedNAS/DARTS-style methods pay per batch.
std::uint64_t supernet_mixed_macs(const SupernetConfig& cfg);

// Training-step FLOPs (forward + backward ~= 3x forward, 2 FLOPs per MAC).
inline double training_flops(std::uint64_t macs, int batch) {
  return 6.0 * static_cast<double>(macs) * batch;
}

}  // namespace fms
