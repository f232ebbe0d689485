// Telemetry instruments: counters, gauges, and fixed-bucket histograms
// collected in a named registry.
//
// The paper's systems claims (per-round transmission latency, staleness
// behavior, search-time accounting) need a breakdown of where round time
// and bytes actually go. Instruments are lock-free after creation (plain
// atomics) so ThreadPool workers can record into them concurrently; the
// registry itself takes a mutex only on name lookup.
//
// A process-wide enable flag (telemetry_enabled) gates every producer:
// when it is off, sinks receive nothing and FMS_SPAN (src/obs/profile.h)
// reads no clock unless profiling is on, so the search hot path pays
// only a relaxed atomic load per check.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/thread_annotations.h"

namespace fms::obs {

namespace detail {
inline std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

// Lock-free add for atomic<double> (fetch_add on double is C++20 but not
// universally lock-free; the CAS loop is portable and contention is low).
inline void atomic_add(std::atomic<double>& a, double x) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + x, std::memory_order_relaxed)) {
  }
}

inline void atomic_min(std::atomic<double>& a, double x) {
  double cur = a.load(std::memory_order_relaxed);
  while (x < cur &&
         !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

inline void atomic_max(std::atomic<double>& a, double x) {
  double cur = a.load(std::memory_order_relaxed);
  while (x > cur &&
         !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}
}  // namespace detail

inline bool telemetry_enabled() {
  return detail::enabled_flag().load(std::memory_order_relaxed);
}

inline void set_telemetry_enabled(bool on) {
  detail::enabled_flag().store(on, std::memory_order_relaxed);
}

// Monotonically increasing event count (arrived updates, bytes shipped).
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// Last-value instrument (policy baseline, alpha entropy).
class Gauge {
 public:
  void set(double x) { v_.store(x, std::memory_order_relaxed); }
  void add(double x) { detail::atomic_add(v_, x); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// Fixed-bucket histogram with interpolated quantiles.
//
// `upper_bounds` are the ascending inclusive upper edges of the buckets;
// one implicit overflow bucket catches everything beyond the last bound.
// quantile(q) walks the cumulative counts and interpolates linearly inside
// the bucket holding the q-th observation, clamped to the observed
// [min, max] so estimates never leave the data range.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds)
      : bounds_(std::move(upper_bounds)),
        counts_(bounds_.size() + 1),
        min_(std::numeric_limits<double>::infinity()),
        max_(-std::numeric_limits<double>::infinity()) {
    FMS_CHECK_MSG(!bounds_.empty(), "histogram needs at least one bucket");
    for (std::size_t i = 1; i < bounds_.size(); ++i) {
      FMS_CHECK_MSG(bounds_[i] > bounds_[i - 1],
                    "histogram bounds must be strictly ascending");
    }
  }

  void observe(double x) {
    counts_[bucket_index(x)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    detail::atomic_add(sum_, x);
    detail::atomic_min(min_, x);
    detail::atomic_max(max_, x);
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const { return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed); }
  double max() const { return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed); }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }

  double quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<std::uint64_t> bucket_counts() const {
    std::vector<std::uint64_t> out(counts_.size());
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      out[i] = counts_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

  void reset() {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    min_.store(std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
    max_.store(-std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
  }

 private:
  std::size_t bucket_index(double x) const {
    // Branchless-enough binary search over a handful of bounds.
    std::size_t lo = 0, hi = bounds_.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (x <= bounds_[mid]) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;  // == bounds_.size() => overflow bucket
  }

  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

// Log-spaced 1-2-5 time buckets from 1us to 100s — the default for span
// durations (sub-model transfers and local training both land well inside).
std::vector<double> default_time_buckets();

// Denser log-spaced buckets (12 per decade, 100ns..100s) used by
// FMS_SPAN timers: the 1-2-5 grid is so coarse that every observation of
// a sub-millisecond zone lands in one or two buckets and interpolated
// p99 collapses toward the bucket edge. At ratio 10^(1/12) (~1.21x per
// bucket) linear interpolation inside a bucket is off by at most ~10%
// of the true value.
std::vector<double> default_span_buckets();

// Linear buckets {0, 1, ..., n} for integer-valued metrics (staleness tau).
std::vector<double> linear_buckets(int n);

// One row of a registry snapshot (what the CSV writer emits).
struct MetricSample {
  std::string name;
  std::string type;  // "counter" | "gauge" | "histogram"
  double value = 0.0;  // counter/gauge value; histogram mean
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

// Named instrument registry. Lookup creates on first use; returned
// references stay valid for the registry's lifetime (instruments are
// heap-allocated and never removed except by reset()).
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  // `bounds` is only consulted on first creation; empty selects the
  // default time buckets.
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = {});

  // Lookup without creation; nullptr when the name was never registered.
  const Histogram* find_histogram(const std::string& name) const;

  std::vector<MetricSample> snapshot() const;
  // CSV snapshot compatible with the fms_*.csv bench outputs (header row
  // plus one row per instrument); numbers follow json_number's rule, so
  // counts and byte totals are exact.
  void write_csv(const std::string& path) const;

  // Drops every instrument. Invalidates previously returned references —
  // intended for tests and between independent experiment runs only.
  void reset();

 private:
  mutable fms::Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      FMS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ FMS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      FMS_GUARDED_BY(mu_);
};

}  // namespace fms::obs
