#include "src/tensor/tensor.h"

#include <cstring>
#include <sstream>

namespace fms {

namespace {

using Vec8 = float __attribute__((vector_size(32)));

// dst[i] = dst[i] + src[i], or dst[i] - src[i] when kSub, over len floats.
// Each element is one add, so vectorizing changes no result; src may be
// dst.
template <bool kSub>
void add_into(std::size_t len, const float* src, float* dst) {
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    Vec8 a;
    Vec8 b;
    std::memcpy(&a, dst + i, sizeof a);
    std::memcpy(&b, src + i, sizeof b);
    a = kSub ? a - b : a + b;
    std::memcpy(dst + i, &a, sizeof a);
  }
  for (; i < len; ++i) dst[i] = kSub ? dst[i] - src[i] : dst[i] + src[i];
}

}  // namespace

Tensor& Tensor::operator+=(const Tensor& o) {
  FMS_CHECK(same_shape(o));
  FMS_OP("tensor.axpy", obs::axpy_cost(data_.size()));
  add_into<false>(data_.size(), o.data_.data(), data_.data());
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& o) {
  FMS_CHECK(same_shape(o));
  add_into<true>(data_.size(), o.data_.data(), data_.data());
  return *this;
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << ",";
    os << shape_[i];
  }
  os << "]";
  return os.str();
}

}  // namespace fms
