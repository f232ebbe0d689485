// Dense float32 tensor.
//
// The library deliberately uses a small value-semantic tensor (contiguous
// std::vector<float> storage, row-major) instead of a general autograd
// graph: every layer in src/nn implements an explicit backward pass, which
// keeps the math auditable and the federated gradient plumbing (flatten /
// scatter / compensate) trivial.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/obs/alloc.h"
#include "src/obs/work.h"

namespace fms {

// Tensor storage is the only float buffer the search allocates in bulk,
// so every acquisition/release below reports to the allocation ledger
// (src/obs/alloc.h). "Alloc" means this tensor took ownership of live
// bytes (fresh buffer, copy, or adopted vector); moves transfer
// ownership and report nothing. The hooks cost one relaxed atomic load
// when profiling is off.
class Tensor {
 public:
  Tensor() = default;

  explicit Tensor(std::vector<int> shape, float fill = 0.0F)
      : shape_(std::move(shape)), data_(checked_numel(shape_), fill) {
    obs::track_alloc(storage_bytes());
  }

  Tensor(std::vector<int> shape, std::vector<float> data)
      : shape_(std::move(shape)), data_(std::move(data)) {
    FMS_CHECK_MSG(data_.size() == checked_numel(shape_),
                  "data size does not match shape");
    obs::track_alloc(storage_bytes());
  }

  Tensor(const Tensor& o) : shape_(o.shape_), data_(o.data_) {
    obs::track_alloc(storage_bytes());
  }

  Tensor(Tensor&& o) noexcept
      : shape_(std::move(o.shape_)), data_(std::move(o.data_)) {
    // Ownership of the live bytes moved with the buffer; make sure the
    // source really is empty so its destructor releases nothing.
    o.shape_.clear();
    o.data_.clear();
  }

  Tensor& operator=(const Tensor& o) {
    if (this != &o) {
      obs::track_free(storage_bytes());
      shape_ = o.shape_;
      data_ = o.data_;
      obs::track_alloc(storage_bytes());
    }
    return *this;
  }

  Tensor& operator=(Tensor&& o) noexcept {
    if (this != &o) {
      obs::track_free(storage_bytes());
      shape_ = std::move(o.shape_);
      data_ = std::move(o.data_);
      o.shape_.clear();
      o.data_.clear();
    }
    return *this;
  }

  ~Tensor() { obs::track_free(storage_bytes()); }

  static Tensor zeros(std::vector<int> shape) { return Tensor(std::move(shape)); }

  static Tensor full(std::vector<int> shape, float v) {
    return Tensor(std::move(shape), v);
  }

  // Gaussian init, used for data generation and (scaled) weight init.
  static Tensor randn(std::vector<int> shape, Rng& rng, float stddev = 1.0F) {
    Tensor t(std::move(shape));
    for (auto& v : t.data_) v = rng.normal(0.0F, stddev);
    return t;
  }

  // --- shape ---
  int ndim() const { return static_cast<int>(shape_.size()); }
  int dim(int i) const {
    FMS_CHECK(i >= 0 && i < ndim());
    return shape_[static_cast<std::size_t>(i)];
  }
  const std::vector<int>& shape() const { return shape_; }
  std::size_t numel() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  bool same_shape(const Tensor& o) const { return shape_ == o.shape_; }

  // Reshape to a view-compatible shape (numel must match). Routed
  // through the adopting constructor so the copy hits the ledger.
  Tensor reshaped(std::vector<int> shape) const {
    FMS_CHECK(checked_numel(shape) == data_.size());
    return Tensor(std::move(shape), data_);
  }

  // --- element access ---
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& vec() { return data_; }
  const std::vector<float>& vec() const { return data_; }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  // 2-D indexing (rows, cols).
  float& at2(int i, int j) {
    return data_[static_cast<std::size_t>(i) * shape_[1] + j];
  }
  float at2(int i, int j) const {
    return data_[static_cast<std::size_t>(i) * shape_[1] + j];
  }

  // 4-D NCHW indexing.
  float& at4(int n, int c, int h, int w) {
    return data_[offset4(n, c, h, w)];
  }
  float at4(int n, int c, int h, int w) const {
    return data_[offset4(n, c, h, w)];
  }
  std::size_t offset4(int n, int c, int h, int w) const {
    return ((static_cast<std::size_t>(n) * shape_[1] + c) * shape_[2] + h) *
               shape_[3] +
           w;
  }

  // --- arithmetic (elementwise, shape-checked) ---
  // Out of line and eight floats at a time: GCC kept the inlined loop
  // scalar.
  Tensor& operator+=(const Tensor& o);
  Tensor& operator-=(const Tensor& o);
  Tensor& operator*=(float s) {
    for (auto& v : data_) v *= s;
    return *this;
  }

  void fill(float v) {
    for (auto& x : data_) x = v;
  }
  void zero() { fill(0.0F); }

  float sum() const {
    double s = 0.0;
    for (float v : data_) s += v;
    return static_cast<float>(s);
  }

  float l2_norm() const {
    double s = 0.0;
    for (float v : data_) s += static_cast<double>(v) * v;
    return static_cast<float>(std::sqrt(s));
  }

  std::string shape_str() const;

 private:
  std::size_t storage_bytes() const { return data_.size() * sizeof(float); }

  static std::size_t checked_numel(const std::vector<int>& shape) {
    std::size_t n = 1;
    for (int d : shape) {
      FMS_CHECK_MSG(d >= 0, "negative dimension");
      n *= static_cast<std::size_t>(d);
    }
    return n;
  }

  std::vector<int> shape_;
  std::vector<float> data_;
};

inline Tensor operator+(Tensor a, const Tensor& b) { return a += b; }
inline Tensor operator-(Tensor a, const Tensor& b) { return a -= b; }
inline Tensor operator*(Tensor a, float s) { return a *= s; }

}  // namespace fms
