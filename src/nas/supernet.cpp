#include "src/nas/supernet.h"

#include "src/obs/work.h"
#include "src/tensor/ops.h"

namespace fms {

Supernet::Supernet(const SupernetConfig& cfg, Rng& rng)
    : cfg_(cfg), stack_(cfg, nullptr, rng) {
  build_param_index();
}

void Supernet::build_param_index() {
  params_.clear();
  tags_.clear();
  auto add_shared = [&](std::vector<Param*>&& ps) {
    for (Param* p : ps) {
      params_.push_back(p);
      tags_.push_back(ParamTag{});
    }
  };
  {
    std::vector<Param*> ps;
    stack_.stem->collect_params(ps);
    add_shared(std::move(ps));
  }
  for (auto& cell : stack_.cells) {
    {
      std::vector<Param*> ps;
      cell->collect_shared_params(ps);
      add_shared(std::move(ps));
    }
    for (int e = 0; e < cell->num_edges(); ++e) {
      for (int op = 0; op < kNumOps; ++op) {
        std::vector<Param*> ps;
        cell->collect_op_params(e, op, ps);
        for (Param* p : ps) {
          params_.push_back(p);
          tags_.push_back(ParamTag{false, cell->spec().reduction, e, op});
        }
      }
    }
  }
  {
    std::vector<Param*> ps;
    stack_.classifier->collect_params(ps);
    add_shared(std::move(ps));
  }
  offsets_.clear();
  std::size_t pos = 0;
  for (Param* p : params_) {
    offsets_.push_back(pos);
    pos += p->numel();
  }
}

Tensor Supernet::forward(const Tensor& x, const Mask& mask, bool train) {
  FMS_OP("nas.forward", {});
  FMS_CHECK(static_cast<int>(mask.normal.size()) == num_edges());
  FMS_CHECK(static_cast<int>(mask.reduce.size()) == num_edges());
  mixed_mode_ = false;
  Tensor logits = stack_.forward(
      x, train, [&](Cell& cell, const Tensor& s0, const Tensor& s1) {
        return cell.forward(
            s0, s1, cell.spec().reduction ? mask.reduce : mask.normal, train);
      });
  has_cache_ = train;
  return logits;
}

void Supernet::backward(const Tensor& grad_logits) {
  FMS_OP("nas.backward", {});
  FMS_CHECK_MSG(has_cache_ && !mixed_mode_,
                "Supernet::backward without masked train forward");
  stack_.backward(grad_logits, [](Cell& cell, const Tensor& g) {
    return cell.backward(g);
  });
  has_cache_ = false;
}

Tensor Supernet::forward_mixed(const Tensor& x, const EdgeWeights& w_normal,
                               const EdgeWeights& w_reduce, bool train) {
  mixed_mode_ = true;
  Tensor logits = stack_.forward(
      x, train, [&](Cell& cell, const Tensor& s0, const Tensor& s1) {
        return cell.forward_mixed(
            s0, s1, cell.spec().reduction ? w_reduce : w_normal, train);
      });
  has_cache_ = train;
  return logits;
}

void Supernet::backward_mixed(const Tensor& grad_logits,
                              EdgeWeights& gw_normal, EdgeWeights& gw_reduce) {
  FMS_CHECK_MSG(has_cache_ && mixed_mode_,
                "Supernet::backward_mixed without mixed train forward");
  stack_.backward(grad_logits, [&](Cell& cell, const Tensor& g) {
    return cell.backward_mixed(g, cell.spec().reduction ? gw_reduce
                                                        : gw_normal);
  });
  has_cache_ = false;
}

const std::vector<Param*>& Supernet::params() { return params_; }

void Supernet::zero_grad() {
  for (Param* p : params_) p->grad.zero();
}

void Supernet::zero_grads(const std::vector<std::size_t>& ids) {
  for (std::size_t id : ids) params_[id]->grad.zero();
}

std::vector<std::size_t> Supernet::masked_param_ids(const Mask& mask) const {
  FMS_OP("nas.mask_ids", {});
  FMS_CHECK(static_cast<int>(mask.normal.size()) == num_edges());
  FMS_CHECK(static_cast<int>(mask.reduce.size()) == num_edges());
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < tags_.size(); ++i) {
    const ParamTag& t = tags_[i];
    if (t.shared) {
      ids.push_back(i);
      continue;
    }
    const auto& m = t.reduction ? mask.reduce : mask.normal;
    if (m[static_cast<std::size_t>(t.edge)] == t.op) ids.push_back(i);
  }
  return ids;
}

std::vector<float> Supernet::gather_values(
    const std::vector<std::size_t>& ids) const {
  obs::ScopedOp op("nas.gather");
  std::vector<float> flat;
  flat.reserve(numel_of(ids));
  for (std::size_t id : ids) {
    const Param& p = *params_[id];
    const std::vector<float>& v = p.value.vec();
    flat.insert(flat.end(), v.begin(), v.end());
  }
  op.add([&] { return obs::copy_cost(flat.size()); });
  return flat;
}

std::vector<float> Supernet::gather_grads(const std::vector<std::size_t>& ids) {
  obs::ScopedOp op("nas.gather");
  std::vector<float> flat;
  flat.reserve(numel_of(ids));
  for (std::size_t id : ids) {
    const auto& g = params_[id]->grad.vec();
    flat.insert(flat.end(), g.begin(), g.end());
  }
  op.add([&] { return obs::copy_cost(flat.size()); });
  return flat;
}

void Supernet::scatter_values(const std::vector<std::size_t>& ids,
                              const std::vector<float>& flat) {
  FMS_OP("nas.scatter", obs::copy_cost(flat.size()));
  std::size_t pos = 0;
  for (std::size_t id : ids) {
    auto& v = params_[id]->value.vec();
    FMS_CHECK(pos + v.size() <= flat.size());
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(pos),
              flat.begin() + static_cast<std::ptrdiff_t>(pos + v.size()),
              v.begin());
    pos += v.size();
  }
  FMS_CHECK_MSG(pos == flat.size(), "scatter size mismatch");
}

void Supernet::scatter_add_grads(const std::vector<std::size_t>& ids,
                                 const std::vector<float>& flat) {
  FMS_OP("nas.scatter", obs::copy_cost(flat.size()));
  std::size_t pos = 0;
  for (std::size_t id : ids) {
    auto& g = params_[id]->grad.vec();
    FMS_CHECK(pos + g.size() <= flat.size());
    for (std::size_t i = 0; i < g.size(); ++i) g[i] += flat[pos + i];
    pos += g.size();
  }
  FMS_CHECK_MSG(pos == flat.size(), "scatter size mismatch");
}

std::vector<float> Supernet::gather_from_flat(
    const std::vector<float>& flat, const std::vector<std::size_t>& ids) const {
  obs::ScopedOp op("nas.gather");
  FMS_CHECK(flat.size() == param_count());
  std::vector<float> out;
  for (std::size_t id : ids) {
    const std::size_t off = offsets_[id];
    const std::size_t n = params_[id]->numel();
    out.insert(out.end(), flat.begin() + static_cast<std::ptrdiff_t>(off),
               flat.begin() + static_cast<std::ptrdiff_t>(off + n));
  }
  op.add([&] { return obs::copy_cost(out.size()); });
  return out;
}

std::vector<float> Supernet::dense_from_masked(
    const std::vector<std::size_t>& ids, const std::vector<float>& flat) const {
  FMS_OP("nas.densify", obs::copy_cost(flat.size()));
  std::vector<float> dense(param_count(), 0.0F);
  std::size_t pos = 0;
  for (std::size_t id : ids) {
    const std::size_t off = offsets_[id];
    const std::size_t n = params_[id]->numel();
    FMS_CHECK(pos + n <= flat.size());
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(pos),
              flat.begin() + static_cast<std::ptrdiff_t>(pos + n),
              dense.begin() + static_cast<std::ptrdiff_t>(off));
    pos += n;
  }
  FMS_CHECK_MSG(pos == flat.size(), "dense scatter size mismatch");
  return dense;
}

std::vector<std::uint8_t> Supernet::presence_from_masked(
    const std::vector<std::size_t>& ids) const {
  FMS_OP("nas.presence", {});
  std::vector<std::uint8_t> present(param_count(), 0);
  for (std::size_t id : ids) {
    const std::size_t off = offsets_[id];
    const std::size_t n = params_[id]->numel();
    std::fill(present.begin() + static_cast<std::ptrdiff_t>(off),
              present.begin() + static_cast<std::ptrdiff_t>(off + n),
              std::uint8_t{1});
  }
  return present;
}

void Supernet::add_flat_grads(const std::vector<float>& flat) {
  FMS_OP("nas.scatter", obs::copy_cost(flat.size()));
  std::size_t pos = 0;
  for (Param* p : params_) {
    auto& g = p->grad.vec();
    FMS_CHECK(pos + g.size() <= flat.size());
    for (std::size_t i = 0; i < g.size(); ++i) g[i] += flat[pos + i];
    pos += g.size();
  }
  FMS_CHECK_MSG(pos == flat.size(), "flat grad size mismatch");
}

std::vector<float> Supernet::flat_values() {
  FMS_OP("nas.gather", obs::copy_cost(param_count()));
  std::vector<float> flat;
  flat.reserve(param_count());
  for (Param* p : params_) {
    flat.insert(flat.end(), p->value.vec().begin(), p->value.vec().end());
  }
  return flat;
}

void Supernet::set_flat_values(const std::vector<float>& flat) {
  FMS_OP("nas.scatter", obs::copy_cost(flat.size()));
  std::size_t pos = 0;
  for (Param* p : params_) {
    auto& v = p->value.vec();
    FMS_CHECK(pos + v.size() <= flat.size());
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(pos),
              flat.begin() + static_cast<std::ptrdiff_t>(pos + v.size()),
              v.begin());
    pos += v.size();
  }
  FMS_CHECK_MSG(pos == flat.size(), "flat size mismatch");
}

std::size_t Supernet::param_count() const {
  std::size_t n = 0;
  for (Param* p : params_) n += p->numel();
  return n;
}

std::size_t Supernet::param_count_masked(const Mask& mask) const {
  return numel_of(masked_param_ids(mask));
}

std::size_t Supernet::numel_of(const std::vector<std::size_t>& ids) const {
  std::size_t n = 0;
  for (std::size_t id : ids) n += params_[id]->numel();
  return n;
}

std::size_t Supernet::supernet_bytes() const {
  // float32 values plus a small fixed header.
  return 16 + 4 * param_count();
}

std::size_t Supernet::submodel_bytes(const Mask& mask) const {
  // float32 values + one byte per edge per cell template for the mask.
  return 16 + mask.normal.size() + mask.reduce.size() +
         4 * param_count_masked(mask);
}

Mask random_mask(int num_edges, Rng& rng) {
  Mask m;
  m.normal.resize(static_cast<std::size_t>(num_edges));
  m.reduce.resize(static_cast<std::size_t>(num_edges));
  for (auto& v : m.normal) v = rng.randint(0, kNumOps - 1);
  for (auto& v : m.reduce) v = rng.randint(0, kNumOps - 1);
  return m;
}

}  // namespace fms
