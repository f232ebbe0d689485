// The N = 8 candidate operations of the DARTS search space (paper Fig. 1).
// An edge of a sampled sub-model carries exactly one of these.
#pragma once

#include <array>
#include <memory>
#include <string>

#include "src/nn/layers.h"

namespace fms {

enum class OpType : int {
  kZero = 0,       // "none"
  kIdentity = 1,   // skip-connect (FactorizedReduce when stride 2)
  kMaxPool3 = 2,   // 3x3 max pool (+BN, DARTS convention)
  kAvgPool3 = 3,   // 3x3 avg pool (+BN)
  kSepConv3 = 4,   // 3x3 separable conv (applied twice)
  kSepConv5 = 5,   // 5x5 separable conv (applied twice)
  kDilConv3 = 6,   // 3x3 dilated separable conv
  kDilConv5 = 7,   // 5x5 dilated separable conv
};

inline constexpr int kNumOps = 8;

const char* op_name(OpType op);

// Zero operation: emits zeros of the post-stride shape; gradients vanish.
class ZeroOp : public Module {
 public:
  explicit ZeroOp(int stride) : stride_(stride) {}

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  int stride_;
  std::vector<int> cached_in_shape_;
};

// Builds candidate op `op` operating on `channels` channels with the given
// stride (2 only on reduction-cell edges fed by cell inputs).
std::unique_ptr<Module> make_candidate_op(OpType op, int channels, int stride,
                                          Rng& rng);

}  // namespace fms
