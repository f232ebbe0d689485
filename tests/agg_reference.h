// The dense aggregation loops the estimator core replaced, kept verbatim
// as the oracle of `ctest -L kernels` (tests/test_kernels_agg.cpp): every
// update a dense vector, a byte-per-coordinate presence mask, and each
// coordinate's column gathered from the updates and std::sort-ed. Only
// the profiler zones are dropped. Inputs must be NaN-free, since
// std::sort over a NaN is not a strict weak order.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/agg/aggregator.h"

namespace fms::agg_ref {

using agg::AggregationOutcome;
using agg::median_of;

inline double l2_norm(const std::vector<float>& v) {
  double sq = 0.0;
  for (const float x : v) sq += static_cast<double>(x) * x;
  return std::sqrt(sq);
}

// f clamped to what n arrivals can support: trimming needs 2f < n and the
// Krum score needs n - f - 2 >= 1 neighbours (f <= n - 3).
inline int clamp_trim(int f, std::size_t n) {
  const int max_f = (static_cast<int>(n) - 1) / 2;
  return std::max(0, std::min(f, max_f));
}

inline int clamp_krum(int f, std::size_t n) {
  return std::max(0, std::min(f, static_cast<int>(n) - 3));
}

inline AggregationOutcome aggregate_mean(
    const std::vector<std::vector<float>>& u) {
  AggregationOutcome out;
  const std::size_t dim = u.front().size();
  const double inv_n = 1.0 / static_cast<double>(u.size());
  out.grad.assign(dim, 0.0F);
  for (std::size_t c = 0; c < dim; ++c) {
    double s = 0.0;
    for (const auto& g : u) s += g[c];
    out.grad[c] = static_cast<float>(s * inv_n);
  }
  return out;
}

inline AggregationOutcome aggregate_clipped_mean(
    const std::vector<std::vector<float>>& u, float k) {
  AggregationOutcome out;
  const std::size_t dim = u.front().size();
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
inline void present_column(
    const std::vector<std::vector<float>>& u,
    const std::vector<std::vector<std::uint8_t>>& presence, std::size_t c,
    std::vector<float>& col) {
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
inline double participation_scale(std::size_t n_j, std::size_t m) {
  return static_cast<double>(n_j) / static_cast<double>(m);
}

inline AggregationOutcome aggregate_coordinate_median(
    const std::vector<std::vector<float>>& u,
    const std::vector<std::vector<std::uint8_t>>& presence) {
  AggregationOutcome out;
  const std::size_t dim = u.front().size();
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

inline AggregationOutcome aggregate_trimmed_mean(
    const std::vector<std::vector<float>>& u,
    const std::vector<std::vector<std::uint8_t>>& presence, int f) {
  AggregationOutcome out;
  const std::size_t dim = u.front().size();
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
inline std::vector<double> krum_scores(
    const std::vector<std::vector<float>>& u, int f_eff) {
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

inline AggregationOutcome aggregate_krum(
    const std::vector<std::vector<float>>& u, int f, bool multi) {
  AggregationOutcome out;
  const std::size_t n = u.size();
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

// The dispatch of the dense agg::aggregate with presence (an empty
// presence means fully dense).
inline AggregationOutcome aggregate(
    const agg::AggregatorConfig& cfg,
    const std::vector<std::vector<float>>& updates,
    const std::vector<std::vector<std::uint8_t>>& presence) {
  switch (cfg.kind) {
    case agg::AggregatorKind::kMean:
      // Absent coordinates are exact zeros, so the masked mean IS the
      // dense mean — presence changes nothing algebraically.
      return aggregate_mean(updates);
    case agg::AggregatorKind::kClippedMean:
      // Per-update norms and the weighted sum are untouched by exact
      // zeros; clipping scales whole updates, so presence is moot too.
      return aggregate_clipped_mean(updates, cfg.clip_multiplier);
    case agg::AggregatorKind::kCoordinateMedian:
      return aggregate_coordinate_median(updates, presence);
    case agg::AggregatorKind::kTrimmedMean:
      return aggregate_trimmed_mean(updates, presence, cfg.f);
    case agg::AggregatorKind::kKrum:
      return aggregate_krum(updates, cfg.f, /*multi=*/false);
    case agg::AggregatorKind::kMultiKrum:
      return aggregate_krum(updates, cfg.f, /*multi=*/true);
  }
  return aggregate_mean(updates);
}

}  // namespace fms::agg_ref
