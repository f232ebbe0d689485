// Small statistics helpers used by the RL baseline, metric streams, and
// experiment reporting.
#pragma once

#include <cmath>
#include <cstddef>
#include <deque>
#include <vector>

#include "src/common/check.h"
#include "src/common/serialize.h"

namespace fms {

// Exponential moving average: b_{t+1} = beta * x + (1 - beta) * b_t.
// This is the form the paper uses for the REINFORCE reward baseline
// (Eq. 9), where beta is the "baseline decay" hyperparameter.
class ExpMovingAverage {
 public:
  explicit ExpMovingAverage(double beta) : beta_(beta) {
    FMS_CHECK(beta >= 0.0 && beta <= 1.0);
  }

  double update(double x) {
    if (!initialized_) {
      value_ = x;
      initialized_ = true;
    } else {
      value_ = beta_ * x + (1.0 - beta_) * value_;
    }
    return value_;
  }

  double value() const { return initialized_ ? value_ : 0.0; }
  bool initialized() const { return initialized_; }

  // Exact state restore for crash-recovery (beta stays as constructed).
  void restore(double value, bool initialized) {
    value_ = value;
    initialized_ = initialized;
  }

 private:
  double beta_;
  double value_ = 0.0;
  bool initialized_ = false;
};

// Fixed-window moving average (the paper smooths search curves with a
// 50-step window).
class WindowAverage {
 public:
  explicit WindowAverage(std::size_t window) : window_(window) {
    FMS_CHECK(window > 0);
  }

  double update(double x) {
    values_.push_back(x);
    sum_ += x;
    if (values_.size() > window_) {
      sum_ -= values_.front();
      values_.pop_front();
    }
    // The rolling add/subtract accumulates floating-point error without
    // bound over long searches (tens of thousands of rounds); recompute
    // the sum exactly once per window turnover so the error stays at a
    // single window's worth of rounding.
    if (++updates_since_rebuild_ >= window_) {
      updates_since_rebuild_ = 0;
      sum_ = 0.0;
      for (double v : values_) sum_ += v;
    }
    return value();
  }

  double value() const {
    return values_.empty() ? 0.0 : sum_ / static_cast<double>(values_.size());
  }

  // Exact state persistence for crash-recovery: the rolling sum and the
  // rebuild phase both carry floating-point state that a resumed run must
  // reproduce bit-for-bit, so both are stored verbatim.
  void serialize(ByteWriter& w) const { walk(w, *this); }
  void restore(ByteReader& r) { walk(r, *this); }

 private:
  template <class Io, class Self>
  static void walk(Io& io, Self& a) {
    io(as<std::vector<double>>(a.values_), a.sum_,
       as<std::uint64_t>(a.updates_since_rebuild_));
    if constexpr (Io::kReading) {
      FMS_CHECK_MSG(a.values_.size() <= a.window_, "window state too large");
    }
  }

  std::size_t window_;
  std::deque<double> values_;
  double sum_ = 0.0;
  std::size_t updates_since_rebuild_ = 0;
};

// Welford online mean/variance.
class OnlineMeanVar {
 public:
  void update(double x) {
    ++n_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

inline double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

inline double stddev_of(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  double m = mean_of(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(v.size() - 1));
}

}  // namespace fms
