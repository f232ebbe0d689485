// Layer abstraction with explicit forward/backward.
//
// Modules cache whatever the backward pass needs during forward(train=true);
// calling backward() after an eval-mode forward is a programming error and
// is checked. clone() performs a deep copy, which is how sub-models are
// materialized from supernet operations.
#pragma once

#include <memory>
#include <vector>

#include "src/tensor/tensor.h"

namespace fms {

// A learnable tensor together with its gradient accumulator.
struct Param {
  Tensor value;
  Tensor grad;

  explicit Param(Tensor v) : value(std::move(v)), grad(value.shape()) {}
  Param() = default;

  std::size_t numel() const { return value.numel(); }
};

class Module {
 public:
  virtual ~Module() = default;

  virtual Tensor forward(const Tensor& x, bool train) = 0;
  // Returns gradient w.r.t. the input of the last forward(train=true) call;
  // accumulates into parameter .grad fields.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  // Appends pointers to all parameters (depth-first, deterministic order).
  virtual void collect_params(std::vector<Param*>& out) {
    (void)out;  // parameter-free modules
  }

  virtual std::unique_ptr<Module> clone() const = 0;

  std::vector<Param*> params() {
    std::vector<Param*> out;
    collect_params(out);
    return out;
  }

  void zero_grad() {
    for (Param* p : params()) p->grad.zero();
  }

  std::size_t param_count() {
    std::size_t n = 0;
    for (Param* p : params()) n += p->numel();
    return n;
  }
};

// Sequential container; owns its children.
class Sequential : public Module {
 public:
  Sequential() = default;

  explicit Sequential(std::vector<std::unique_ptr<Module>> children)
      : children_(std::move(children)) {}

  Sequential& add(std::unique_ptr<Module> m) {
    children_.push_back(std::move(m));
    return *this;
  }

  // The first child reads the caller's tensor; only an empty container
  // copies it.
  Tensor forward(const Tensor& x, bool train) override {
    if (children_.empty()) return x;
    Tensor h = children_.front()->forward(x, train);
    for (auto it = children_.begin() + 1; it != children_.end(); ++it) {
      h = (*it)->forward(h, train);
    }
    return h;
  }

  Tensor backward(const Tensor& grad_out) override {
    if (children_.empty()) return grad_out;
    Tensor g = children_.back()->backward(grad_out);
    for (auto it = children_.rbegin() + 1; it != children_.rend(); ++it) {
      g = (*it)->backward(g);
    }
    return g;
  }

  void collect_params(std::vector<Param*>& out) override {
    for (auto& m : children_) m->collect_params(out);
  }

  std::unique_ptr<Module> clone() const override {
    auto copy = std::make_unique<Sequential>();
    for (const auto& m : children_) copy->add(m->clone());
    return copy;
  }

  std::size_t size() const { return children_.size(); }
  Module& child(std::size_t i) { return *children_[i]; }

 private:
  std::vector<std::unique_ptr<Module>> children_;
};

// --- flat parameter plumbing (used by the federated substrate) ---

// Copies all parameter values into one flat vector.
std::vector<float> flatten_values(const std::vector<Param*>& params);
// Copies all parameter gradients into one flat vector.
std::vector<float> flatten_grads(const std::vector<Param*>& params);
// Writes a flat vector back into parameter values. Sizes must match.
void unflatten_values(const std::vector<float>& flat,
                      const std::vector<Param*>& params);
// Adds a flat vector into parameter gradients. Sizes must match.
void accumulate_grads(const std::vector<float>& flat,
                      const std::vector<Param*>& params);

}  // namespace fms
