#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "src/obs/json.h"

namespace fms::obs {

std::vector<double> default_time_buckets() {
  std::vector<double> bounds;
  for (double decade = 1e-6; decade < 200.0; decade *= 10.0) {
    for (double step : {1.0, 2.0, 5.0}) {
      const double b = decade * step;
      if (b <= 100.0) bounds.push_back(b);
    }
  }
  return bounds;
}

std::vector<double> default_span_buckets() {
  std::vector<double> bounds;
  // 12 buckets per decade over [1e-7, 100]: 9 decades, 109 edges. The
  // edge values are computed by repeated multiplication, which is exact
  // enough (drift ~1e-13 relative over the whole range) and cheap.
  const double ratio = std::pow(10.0, 1.0 / 12.0);
  double edge = 1e-7;
  while (edge <= 100.0 * 1.0000001) {
    bounds.push_back(edge);
    edge *= ratio;
  }
  return bounds;
}

std::vector<double> linear_buckets(int n) {
  FMS_CHECK(n >= 0);
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(n) + 1);
  for (int i = 0; i <= n; ++i) bounds.push_back(static_cast<double>(i));
  return bounds;
}

double Histogram::quantile(double q) const {
  FMS_CHECK(q >= 0.0 && q <= 1.0);
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const double lo_clamp = min_.load(std::memory_order_relaxed);
  const double hi_clamp = max_.load(std::memory_order_relaxed);
  // Rank of the target observation (1-based, midpoint convention).
  const double rank = q * static_cast<double>(n);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double c = static_cast<double>(counts_[i].load(std::memory_order_relaxed));
    // fms-lint: allow(float-eq) -- exact-zero skip of an integer-valued count
    if (c == 0.0) continue;
    if (cum + c >= rank) {
      // Interpolate inside bucket i between its lower and upper edge.
      double lower = i == 0 ? lo_clamp : bounds_[i - 1];
      double upper = i < bounds_.size() ? bounds_[i] : hi_clamp;
      lower = std::max(lower, lo_clamp);
      upper = std::min(upper, hi_clamp);
      if (upper < lower) upper = lower;
      // fms-lint: allow(float-eq) -- exact-zero guard against 0/0
      const double frac = c == 0.0 ? 0.0 : (rank - cum) / c;
      return std::clamp(lower + frac * (upper - lower), lo_clamp, hi_clamp);
    }
    cum += c;
  }
  return hi_clamp;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  fms::MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  fms::MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  fms::MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) {
    if (bounds.empty()) bounds = default_time_buckets();
    slot = std::make_unique<Histogram>(std::move(bounds));
  }
  return *slot;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  fms::MutexLock lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  fms::MutexLock lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricSample s;
    s.name = name;
    s.type = "counter";
    s.count = c->value();
    s.value = static_cast<double>(c->value());
    s.sum = s.value;
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSample s;
    s.name = name;
    s.type = "gauge";
    s.value = g->value();
    s.sum = s.value;
    out.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    MetricSample s;
    s.name = name;
    s.type = "histogram";
    s.count = h->count();
    s.sum = h->sum();
    s.value = h->mean();
    s.min = h->min();
    s.max = h->max();
    s.p50 = h->quantile(0.50);
    s.p95 = h->quantile(0.95);
    s.p99 = h->quantile(0.99);
    out.push_back(std::move(s));
  }
  return out;
}

void MetricsRegistry::write_csv(const std::string& path) const {
  std::ofstream f(path);
  FMS_CHECK_MSG(f.good(), "cannot open " << path);
  f << "metric,type,value,count,sum,min,max,p50,p95,p99\n";
  for (const MetricSample& s : snapshot()) {
    std::string line = s.name + "," + s.type;
    for (const double v : {s.value, static_cast<double>(s.count), s.sum,
                           s.min, s.max, s.p50, s.p95, s.p99}) {
      line += ',';
      json_number(line, v);
    }
    f << line << '\n';
  }
}

void MetricsRegistry::reset() {
  fms::MutexLock lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace fms::obs
