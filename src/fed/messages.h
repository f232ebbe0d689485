// Wire messages between server and participants.
//
// Payloads are actually serialized so the efficiency numbers (sub-model vs
// supernet bytes, Table V / Fig. 7) come from measured message sizes, not
// estimates. In deployment these would travel over RPC; here they travel
// through the in-process network simulator.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/serialize.h"
#include "src/nas/supernet.h"

namespace fms {

// Server -> participant: a pruned sub-model (mask + selected weights).
struct SubmodelMsg {
  int round = 0;
  Mask mask;
  std::vector<float> values;  // masked parameter subset, flat

  std::vector<std::uint8_t> serialize() const;
  static SubmodelMsg deserialize(const std::vector<std::uint8_t>& bytes);

 private:
  template <class Io, class Self>
  static void walk(Io& io, Self& m);
};

// Participant -> server: reward and sub-model weight gradients
// (Algorithm 1, Participant Update).
struct UpdateMsg {
  int round = 0;           // the round the sub-model was sampled in (t')
  int participant = 0;
  float reward = 0.0F;     // training accuracy R(theta_k)
  float loss = 0.0F;
  Mask mask;               // echoed so the server can scatter the gradient
  std::vector<float> grads;

  std::vector<std::uint8_t> serialize() const;
  static UpdateMsg deserialize(const std::vector<std::uint8_t>& bytes);

 private:
  template <class Io, class Self>
  static void walk(Io& io, Self& m);
};

}  // namespace fms
