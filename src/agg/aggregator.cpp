#include "src/agg/aggregator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"
#include "src/obs/work.h"

namespace fms::agg {
namespace {

// Linear-interpolation quantile (type-7) over a sorted vector.
double sorted_quantile(const std::vector<double>& sorted, double p) {
  FMS_CHECK(!sorted.empty());
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double l2_norm(const std::vector<float>& v) {
  double sq = 0.0;
  for (const float x : v) sq += static_cast<double>(x) * x;
  return std::sqrt(sq);
}

// f clamped to what n arrivals can support: trimming needs 2f < n and the
// Krum score needs n - f - 2 >= 1 neighbours (f <= n - 3).
int clamp_trim(int f, std::size_t n) {
  const int max_f = (static_cast<int>(n) - 1) / 2;
  return std::max(0, std::min(f, max_f));
}

int clamp_krum(int f, std::size_t n) {
  return std::max(0, std::min(f, static_cast<int>(n) - 3));
}

AggregationOutcome aggregate_mean(const std::vector<std::vector<float>>& u) {
  AggregationOutcome out;
  const std::size_t dim = u.front().size();
  FMS_OP("agg.mean", obs::agg_mean_cost(u.size(), dim));
  const double inv_n = 1.0 / static_cast<double>(u.size());
  out.grad.assign(dim, 0.0F);
  for (std::size_t c = 0; c < dim; ++c) {
    double s = 0.0;
    for (const auto& g : u) s += g[c];
    out.grad[c] = static_cast<float>(s * inv_n);
  }
  return out;
}

AggregationOutcome aggregate_clipped_mean(
    const std::vector<std::vector<float>>& u, float k) {
  AggregationOutcome out;
  const std::size_t dim = u.front().size();
  FMS_OP("agg.clipped_mean", obs::agg_clipped_mean_cost(u.size(), dim));
  std::vector<double> norms;
  norms.reserve(u.size());
  for (const auto& g : u) norms.push_back(l2_norm(g));
  const double bound = median_of(norms) * static_cast<double>(k);
  std::vector<double> scale(u.size(), 1.0);
  for (std::size_t i = 0; i < u.size(); ++i) {
    if (bound > 0.0 && norms[i] > bound) {
      scale[i] = bound / norms[i];
      ++out.clipped_updates;
      out.clipped_mass += norms[i] - bound;
    }
  }
  const double inv_n = 1.0 / static_cast<double>(u.size());
  out.grad.assign(dim, 0.0F);
  for (std::size_t c = 0; c < dim; ++c) {
    double s = 0.0;
    for (std::size_t i = 0; i < u.size(); ++i) s += scale[i] * u[i][c];
    out.grad[c] = static_cast<float>(s * inv_n);
  }
  return out;
}

// Values of coordinate c from the updates that carry it (all of them
// when `presence` is empty — the fully-dense case).
void present_column(const std::vector<std::vector<float>>& u,
                    const std::vector<std::vector<std::uint8_t>>& presence,
                    std::size_t c, std::vector<float>& col) {
  col.clear();
  for (std::size_t i = 0; i < u.size(); ++i) {
    if (presence.empty() || presence[i][c] != 0) col.push_back(u[i][c]);
  }
}

// The n_j/m participation rescale that keeps the per-coordinate
// estimators mean-equivalent: the plain average implicitly down-weights
// a coordinate by how few arrivals carry it, and the robust location of
// the carriers must do the same or rarely-sampled ops would take steps
// m/n_j times too large.
double participation_scale(std::size_t n_j, std::size_t m) {
  return static_cast<double>(n_j) / static_cast<double>(m);
}

AggregationOutcome aggregate_coordinate_median(
    const std::vector<std::vector<float>>& u,
    const std::vector<std::vector<std::uint8_t>>& presence) {
  AggregationOutcome out;
  const std::size_t dim = u.front().size();
  FMS_OP("agg.coordinate_median",
         obs::agg_coordinate_median_cost(u.size(), dim));
  out.grad.assign(dim, 0.0F);
  std::vector<float> col;
  col.reserve(u.size());
  for (std::size_t c = 0; c < dim; ++c) {
    present_column(u, presence, c, col);
    if (col.empty()) continue;  // no carrier: no gradient, like the mean
    std::sort(col.begin(), col.end());
    const std::size_t mid = col.size() / 2;
    const double med =
        col.size() % 2 == 1
            ? static_cast<double>(col[mid])
            : (static_cast<double>(col[mid - 1]) + col[mid]) / 2.0;
    out.grad[c] =
        static_cast<float>(med * participation_scale(col.size(), u.size()));
  }
  return out;
}

AggregationOutcome aggregate_trimmed_mean(
    const std::vector<std::vector<float>>& u,
    const std::vector<std::vector<std::uint8_t>>& presence, int f) {
  AggregationOutcome out;
  const std::size_t dim = u.front().size();
  FMS_OP("agg.trimmed_mean", obs::agg_trimmed_mean_cost(u.size(), dim));
  out.grad.assign(dim, 0.0F);
  std::vector<float> col;
  col.reserve(u.size());
  for (std::size_t c = 0; c < dim; ++c) {
    present_column(u, presence, c, col);
    if (col.empty()) continue;
    // The trim clamps to what this coordinate's carrier count supports:
    // a coordinate carried by one or two updates is passed through as
    // their mean (nothing to trim against).
    const auto uf = static_cast<std::size_t>(clamp_trim(f, col.size()));
    std::sort(col.begin(), col.end());
    double s = 0.0;
    for (std::size_t i = uf; i < col.size() - uf; ++i) s += col[i];
    const double kept_mean = s / static_cast<double>(col.size() - 2 * uf);
    out.grad[c] = static_cast<float>(
        kept_mean * participation_scale(col.size(), u.size()));
    out.trimmed_values += static_cast<long>(2 * uf);
  }
  return out;
}

// Krum scores: for each update, the sum of its n-f-2 smallest squared
// distances to the other updates (Blanchard et al., NeurIPS 2017).
std::vector<double> krum_scores(const std::vector<std::vector<float>>& u,
                                int f_eff) {
  const std::size_t n = u.size();
  std::vector<double> dist2(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      double sq = 0.0;
      const auto& a = u[i];
      const auto& b = u[j];
      for (std::size_t c = 0; c < a.size(); ++c) {
        const double d = static_cast<double>(a[c]) - b[c];
        sq += d * d;
      }
      dist2[i * n + j] = sq;
      dist2[j * n + i] = sq;
    }
  }
  const std::size_t neighbours = static_cast<std::size_t>(std::max(
      1, static_cast<int>(n) - f_eff - 2));
  std::vector<double> scores(n, 0.0);
  std::vector<double> row;
  row.reserve(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    row.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) row.push_back(dist2[i * n + j]);
    }
    std::sort(row.begin(), row.end());
    const std::size_t take = std::min(neighbours, row.size());
    for (std::size_t t = 0; t < take; ++t) scores[i] += row[t];
  }
  return scores;
}

AggregationOutcome aggregate_krum(const std::vector<std::vector<float>>& u,
                                  int f, bool multi) {
  AggregationOutcome out;
  const std::size_t n = u.size();
  FMS_OP("agg.krum", obs::agg_krum_cost(n, u.front().size()));
  if (n == 1) {
    out.grad = u.front();
    out.selected = {0};
    return out;
  }
  const int f_eff = clamp_krum(f, n);
  const std::vector<double> scores = krum_scores(u, f_eff);
  // Rank by score; ties break by lexicographic gradient content so the
  // ranking is permutation-invariant (score ties are real: colluding
  // clones tie by construction, and symmetric geometries tie honestly).
  // Only identical updates fall back to the index, where either choice
  // commits the same gradient.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (scores[a] != scores[b]) return scores[a] < scores[b];
    if (u[a] != u[b]) {
      return std::lexicographical_compare(u[a].begin(), u[a].end(),
                                          u[b].begin(), u[b].end());
    }
    return a < b;
  });
  const std::size_t keep =
      multi ? n - static_cast<std::size_t>(f_eff) : std::size_t{1};
  out.selected.assign(order.begin(),
                      order.begin() + static_cast<std::ptrdiff_t>(keep));
  std::sort(out.selected.begin(), out.selected.end());
  out.rejected_updates = static_cast<int>(n - keep);
  const std::size_t dim = u.front().size();
  out.grad.assign(dim, 0.0F);
  const double inv_keep = 1.0 / static_cast<double>(keep);
  for (std::size_t c = 0; c < dim; ++c) {
    double s = 0.0;
    for (const int i : out.selected) s += u[static_cast<std::size_t>(i)][c];
    out.grad[c] = static_cast<float>(s * inv_keep);
  }
  return out;
}

}  // namespace

const char* aggregator_name(AggregatorKind kind) {
  switch (kind) {
    case AggregatorKind::kMean: return "mean";
    case AggregatorKind::kClippedMean: return "clipped_mean";
    case AggregatorKind::kCoordinateMedian: return "coordinate_median";
    case AggregatorKind::kTrimmedMean: return "trimmed_mean";
    case AggregatorKind::kKrum: return "krum";
    case AggregatorKind::kMultiKrum: return "multi_krum";
  }
  return "unknown";
}

AggregatorConfig AggregatorConfig::parse(const std::string& spec) {
  AggregatorConfig cfg;
  std::string name = spec;
  std::string suffix;
  const std::size_t colon = spec.find(':');
  if (colon != std::string::npos) {
    name = spec.substr(0, colon);
    suffix = spec.substr(colon + 1);
  }
  if (name == "mean") {
    cfg.kind = AggregatorKind::kMean;
  } else if (name == "clipped_mean") {
    cfg.kind = AggregatorKind::kClippedMean;
  } else if (name == "coordinate_median") {
    cfg.kind = AggregatorKind::kCoordinateMedian;
  } else if (name == "trimmed_mean") {
    cfg.kind = AggregatorKind::kTrimmedMean;
  } else if (name == "krum") {
    cfg.kind = AggregatorKind::kKrum;
  } else if (name == "multi_krum") {
    cfg.kind = AggregatorKind::kMultiKrum;
  } else {
    throw CheckError("unknown aggregator '" + name + "'");
  }
  if (suffix.empty()) return cfg;
  try {
    std::size_t used = 0;
    if (cfg.kind == AggregatorKind::kClippedMean) {
      const double k = std::stod(suffix, &used);
      FMS_CHECK_MSG(used == suffix.size() && std::isfinite(k) && k > 0.0,
                    "bad clipped_mean multiplier '" << suffix << "'");
      cfg.clip_multiplier = static_cast<float>(k);
    } else {
      const long f = std::stol(suffix, &used);
      FMS_CHECK_MSG(used == suffix.size() && f >= 0,
                    "bad aggregator f '" << suffix << "'");
      FMS_CHECK_MSG(cfg.kind != AggregatorKind::kMean &&
                        cfg.kind != AggregatorKind::kCoordinateMedian,
                    "aggregator '" << name << "' takes no parameter");
      cfg.f = static_cast<int>(f);
    }
  } catch (const CheckError&) {
    throw;
  } catch (...) {
    throw CheckError("bad aggregator suffix '" + suffix + "'");
  }
  return cfg;
}

std::string AggregatorConfig::to_string() const {
  std::string s = aggregator_name(kind);
  if (kind == AggregatorKind::kTrimmedMean || kind == AggregatorKind::kKrum ||
      kind == AggregatorKind::kMultiKrum) {
    s += ':';
    s += std::to_string(f);
  }
  return s;
}

AggregationOutcome aggregate(const AggregatorConfig& cfg,
                             const std::vector<std::vector<float>>& updates) {
  return aggregate(cfg, updates, {});
}

AggregationOutcome aggregate(
    const AggregatorConfig& cfg, const std::vector<std::vector<float>>& updates,
    const std::vector<std::vector<std::uint8_t>>& presence) {
  FMS_OP("agg.estimate", {});
  FMS_CHECK_MSG(!updates.empty(), "aggregate needs at least one update");
  const std::size_t dim = updates.front().size();
  for (const auto& u : updates) {
    FMS_CHECK_MSG(u.size() == dim, "aggregate dimension mismatch");
  }
  if (!presence.empty()) {
    FMS_CHECK_MSG(presence.size() == updates.size(),
                  "presence/update count mismatch");
    for (const auto& p : presence) {
      FMS_CHECK_MSG(p.size() == dim, "presence dimension mismatch");
    }
  }
  switch (cfg.kind) {
    case AggregatorKind::kMean:
      // Absent coordinates are exact zeros, so the masked mean IS the
      // dense mean — presence changes nothing algebraically.
      return aggregate_mean(updates);
    case AggregatorKind::kClippedMean:
      // Per-update norms and the weighted sum are untouched by exact
      // zeros; clipping scales whole updates, so presence is moot too.
      return aggregate_clipped_mean(updates, cfg.clip_multiplier);
    case AggregatorKind::kCoordinateMedian:
      return aggregate_coordinate_median(updates, presence);
    case AggregatorKind::kTrimmedMean:
      return aggregate_trimmed_mean(updates, presence, cfg.f);
    case AggregatorKind::kKrum:
      return aggregate_krum(updates, cfg.f, /*multi=*/false);
    case AggregatorKind::kMultiKrum:
      return aggregate_krum(updates, cfg.f, /*multi=*/true);
  }
  return aggregate_mean(updates);
}

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double mad_of(const std::vector<double>& values, double center) {
  std::vector<double> dev;
  dev.reserve(values.size());
  for (const double v : values) dev.push_back(std::abs(v - center));
  return median_of(std::move(dev));
}

double adaptive_norm_bound(const std::vector<double>& norms, double k,
                           int min_count, double fallback) {
  if (static_cast<int>(norms.size()) < min_count) return fallback;
  const double med = median_of(norms);
  // A zero-width band (identical norms) would reject everything a hair
  // above the median; floor the spread at 5% of the median.
  const double spread = std::max(mad_of(norms, med), 0.05 * med);
  const double bound = med + k * spread;
  return fallback > 0.0 ? std::min(bound, fallback) : bound;
}

WinsorBounds winsor_bounds(std::vector<double> rewards, double k) {
  WinsorBounds wb;
  if (rewards.empty()) return wb;
  std::sort(rewards.begin(), rewards.end());
  if (rewards.size() < 4) {
    // Too few samples for quartiles to mean anything: clamp nothing.
    wb.lo = rewards.front();
    wb.hi = rewards.back();
    return wb;
  }
  const double q1 = sorted_quantile(rewards, 0.25);
  const double q3 = sorted_quantile(rewards, 0.75);
  const double iqr = q3 - q1;
  wb.lo = q1 - k * iqr;
  wb.hi = q3 + k * iqr;
  return wb;
}

}  // namespace fms::agg
