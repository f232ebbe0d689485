#include "src/fed/participant.h"

#include "src/obs/profile.h"
#include "src/tensor/ops.h"

namespace fms {

SearchParticipant::SearchParticipant(int id, Shard shard,
                                     const SupernetConfig& cfg,
                                     const AugmentConfig& augment,
                                     int batch_size, Rng rng)
    : id_(id),
      shard_(std::move(shard)),
      augment_(augment),
      batch_size_(batch_size),
      rng_(rng) {
  // The replica's init values are irrelevant: every masked parameter is
  // overwritten by the incoming message before use.
  Rng init_rng = rng_.fork();
  replica_ = std::make_unique<Supernet>(cfg, init_rng);
}

UpdateMsg SearchParticipant::train_step(const SubmodelMsg& msg) {
  FMS_SPAN("local_train");
  const auto ids = replica_->masked_param_ids(msg.mask);
  replica_->scatter_values(ids, msg.values);
  // The masked backward writes, and gather_grads reads, only these
  // tensors' gradients, so the rest are never zeroed.
  replica_->zero_grads(ids);

  Dataset::Batch batch = shard_.next_batch(batch_size_, &augment_, rng_);
  Tensor logits = replica_->forward(batch.x, msg.mask, /*train=*/true);
  CrossEntropyResult ce = cross_entropy(logits, batch.y);
  replica_->backward(ce.grad_logits);

  UpdateMsg out;
  out.round = msg.round;
  out.participant = id_;
  out.reward = ce.accuracy;
  out.loss = ce.loss;
  out.mask = msg.mask;
  out.grads = replica_->gather_grads(ids);
  return out;
}

template <class Io, class Self>
void SearchParticipant::walk(Io& io, Self& p) {
  io(p.rng_, p.shard_);
}

void SearchParticipant::serialize(ByteWriter& w) const { walk(w, *this); }
void SearchParticipant::restore(ByteReader& r) { walk(r, *this); }

}  // namespace fms
