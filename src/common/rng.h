// Deterministic random number generation.
//
// Every stochastic component in the library takes an Rng& (or a seed)
// explicitly so that experiments are exactly reproducible; nothing reads
// from a global generator.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/serialize.h"

namespace fms {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed) : engine_(seed) {}

  std::uint64_t next_u64() { return engine_(); }

  // Uniform real in [lo, hi).
  float uniform(float lo = 0.0F, float hi = 1.0F) {
    std::uniform_real_distribution<float> d(lo, hi);
    return d(engine_);
  }

  // Standard normal scaled by stddev.
  float normal(float mean = 0.0F, float stddev = 1.0F) {
    std::normal_distribution<float> d(mean, stddev);
    return d(engine_);
  }

  // Uniform integer in [lo, hi] inclusive.
  int randint(int lo, int hi) {
    FMS_CHECK(lo <= hi);
    std::uniform_int_distribution<int> d(lo, hi);
    return d(engine_);
  }

  bool bernoulli(double p) {
    std::bernoulli_distribution d(p);
    return d(engine_);
  }

  // Samples an index according to the (unnormalized, non-negative) weights.
  // Weights whose sum is not a positive finite number (a NaN, an Inf, all
  // zeros) carry no distribution; std::discrete_distribution requires one,
  // so those draw an index uniformly instead.
  int categorical(const std::vector<float>& weights) {
    FMS_CHECK(!weights.empty());
    double sum = 0.0;
    for (float w : weights) sum += w;
    if (!(sum > 0.0 && std::isfinite(sum))) {
      return randint(0, static_cast<int>(weights.size()) - 1);
    }
    std::discrete_distribution<int> d(weights.begin(), weights.end());
    return d(engine_);
  }

  // Samples a probability vector from Dirichlet(alpha, ..., alpha) of size n.
  std::vector<double> dirichlet(double alpha, int n) {
    FMS_CHECK(alpha > 0.0 && n > 0);
    std::gamma_distribution<double> d(alpha, 1.0);
    std::vector<double> out(static_cast<std::size_t>(n));
    double sum = 0.0;
    for (auto& v : out) {
      v = d(engine_);
      sum += v;
    }
    if (sum <= 0.0) {  // pathological underflow: fall back to uniform
      for (auto& v : out) v = 1.0 / n;
      return out;
    }
    for (auto& v : out) v /= sum;
    return out;
  }

  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

  // Returns a derived generator; streams seeded this way are independent
  // enough for simulation purposes and keep components decoupled.
  Rng fork() { return Rng(engine_() ^ 0x9e3779b97f4a7c15ULL); }

  // Engine-state snapshot/restore (the standard guarantees the textual
  // round-trip reproduces the exact stream) — what crash-recovery needs
  // for bit-identical resumed searches.
  std::string save_state() const {
    std::ostringstream os;
    os << engine_;
    return os.str();
  }
  void load_state(const std::string& state) {
    std::istringstream is(state);
    is >> engine_;
    FMS_CHECK_MSG(!is.fail(), "corrupt rng state");
  }
  // A checkpoint field: the textual snapshot as one string.
  void serialize(ByteWriter& w) const { w(save_state()); }
  void restore(ByteReader& r) {
    std::string state;
    r(state);
    load_state(state);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace fms
