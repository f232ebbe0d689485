// A federated participant for the model-search protocol.
//
// Each participant owns a local data shard and a supernet-shaped parameter
// replica. On receiving a sub-model message it installs the shipped weights
// (only the masked subset — everything else in the replica is never
// touched by a masked forward), trains one batch, and reports the weight
// gradients plus the training accuracy as the RL reward — all through the
// single backward pass of Algorithm 1's Participant Update.
#pragma once

#include <memory>

#include "src/common/config.h"
#include "src/data/dataset.h"
#include "src/fed/messages.h"

namespace fms {

class SearchParticipant {
 public:
  SearchParticipant(int id, Shard shard, const SupernetConfig& cfg,
                    const AugmentConfig& augment, int batch_size,
                    Rng rng);

  int id() const { return id_; }

  // Algorithm 1, lines 37-42.
  UpdateMsg train_step(const SubmodelMsg& msg);

  // Crash-recovery state: the local RNG (batch sampling + augmentation)
  // and the shard's epoch cursor. Replica weights need no persistence —
  // every masked parameter is re-shipped each round and BatchNorm trains
  // on batch statistics.
  void serialize(ByteWriter& w) const;
  void restore(ByteReader& r);

 private:
  template <class Io, class Self>
  static void walk(Io& io, Self& p);

  int id_;
  Shard shard_;
  AugmentConfig augment_;
  int batch_size_;
  Rng rng_;
  std::unique_ptr<Supernet> replica_;
};

}  // namespace fms
