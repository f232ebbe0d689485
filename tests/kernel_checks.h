// Assertions shared by the kernel contract tests (`ctest -L kernels`):
// bit-for-bit tensor equality, the double dot products of the adjoint
// identities, and planting NaN/Inf into inputs.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/common/rng.h"
#include "src/tensor/tensor.h"

namespace fms {

inline ::testing::AssertionResult bit_equal(const char* what,
                                            const Tensor& got,
                                            const Tensor& want) {
  if (got.shape() != want.shape()) {
    return ::testing::AssertionFailure()
           << what << " shape " << got.shape_str() << ", oracle "
           << want.shape_str();
  }
  if (std::memcmp(got.data(), want.data(), got.numel() * sizeof(float)) == 0) {
    return ::testing::AssertionSuccess();
  }
  for (std::size_t i = 0; i < got.numel(); ++i) {
    if (std::memcmp(&got.vec()[i], &want.vec()[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << what << "[" << i << "] = " << got[i] << ", oracle " << want[i];
    }
  }
  return ::testing::AssertionFailure() << what << ": memcmp mismatch";
}

// <a, b> in double, for the adjoint identities.
inline double dot(const Tensor& a, const Tensor& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    s += static_cast<double>(a[i]) * b[i];
  }
  return s;
}

inline Tensor abs_of(Tensor t) {
  for (float& v : t.vec()) v = std::fabs(v);
  return t;
}

// Overwrites `count` random elements with NaN, +Inf or -Inf.
inline void plant_non_finite(Tensor& t, Rng& rng, int count) {
  const std::array<float, 3> bad = {std::numeric_limits<float>::quiet_NaN(),
                                    std::numeric_limits<float>::infinity(),
                                    -std::numeric_limits<float>::infinity()};
  for (int i = 0; i < count; ++i) {
    const int at = rng.randint(0, static_cast<int>(t.numel()) - 1);
    t[static_cast<std::size_t>(at)] =
        bad[static_cast<std::size_t>(rng.randint(0, 2))];
  }
}

}  // namespace fms
