#include "src/nn/optim.h"

#include <cmath>

#include "src/common/check.h"

namespace fms {

float clip_global_norm(const std::vector<Param*>& params, float max_norm) {
  double sq = 0.0;
  for (const Param* p : params) {
    for (float g : p->grad.vec()) sq += static_cast<double>(g) * g;
  }
  const float norm = static_cast<float>(std::sqrt(sq));
  if (max_norm > 0.0F && norm > max_norm) {
    const float scale = max_norm / (norm + 1e-12F);
    for (Param* p : params) {
      for (float& g : p->grad.vec()) g *= scale;
    }
  }
  return norm;
}

float clip_global_norm(std::vector<float>& flat_grad, float max_norm) {
  double sq = 0.0;
  for (float g : flat_grad) sq += static_cast<double>(g) * g;
  const float norm = static_cast<float>(std::sqrt(sq));
  if (max_norm > 0.0F && norm > max_norm) {
    const float scale = max_norm / (norm + 1e-12F);
    for (float& g : flat_grad) g *= scale;
  }
  return norm;
}

void SGD::step(const std::vector<Param*>& params) {
  if (velocity_.empty()) {
    velocity_.resize(params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      velocity_[i].assign(params[i]->numel(), 0.0F);
    }
  }
  FMS_CHECK_MSG(velocity_.size() == params.size(),
                "SGD param list changed between steps");
  clip_global_norm(params, opts_.clip);
  for (std::size_t i = 0; i < params.size(); ++i) {
    Param* p = params[i];
    auto& vel = velocity_[i];
    FMS_CHECK(vel.size() == p->numel());
    for (std::size_t j = 0; j < vel.size(); ++j) {
      const float g =
          p->grad.vec()[j] + opts_.weight_decay * p->value.vec()[j];
      vel[j] = opts_.momentum * vel[j] + g;
      p->value.vec()[j] -= opts_.lr * vel[j];
    }
  }
}

template <class Io, class Self>
void SGD::walk(Io& io, Self& opt, std::size_t num_params) {
  io.each(opt.velocity_, [&io](auto& v) { io(v); });
  if constexpr (Io::kReading) {
    FMS_CHECK_MSG(opt.velocity_.empty() || opt.velocity_.size() == num_params,
                  "optimizer state tensor count mismatch");
  }
}

void SGD::serialize(ByteWriter& w) const { walk(w, *this, 0); }
void SGD::restore(ByteReader& r, std::size_t num_params) {
  walk(r, *this, num_params);
}

}  // namespace fms
