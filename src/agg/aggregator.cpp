#include "src/agg/aggregator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>

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

// f clamped to what n arrivals can support: trimming needs 2f < n and the
// Krum score needs n - f - 2 >= 1 neighbours (f <= n - 3).
int clamp_trim(int f, std::size_t n) {
  const int max_f = (static_cast<int>(n) - 1) / 2;
  return std::max(0, std::min(f, max_f));
}

int clamp_krum(int f, std::size_t n) {
  return std::max(0, std::min(f, static_cast<int>(n) - 3));
}

// The n_j/m participation rescale that keeps the per-coordinate
// estimators mean-equivalent: the plain average implicitly down-weights
// a coordinate by how few arrivals carry it, and the robust location of
// the carriers must do the same or rarely-sampled ops would take steps
// m/n_j times too large.
double participation_scale(std::size_t n_j, std::size_t m) {
  return static_cast<double>(n_j) / static_cast<double>(m);
}

// detail::kLanes coordinates side by side, in the compiler's generic
// vectors: one register on AVX-512, lowered to narrower ones elsewhere.
// They are only ever loaded and stored through memory (never passed by
// value), so no function's ABI depends on the target's vector width.
using Lanes =
    float __attribute__((vector_size(detail::kLanes * sizeof(float))));
using WideLanes =
    double __attribute__((vector_size(detail::kLanes * sizeof(double))));
using LaneMask = std::int32_t
    __attribute__((vector_size(detail::kLanes * sizeof(std::int32_t))));

// A strict weak order on doubles that puts NaN after every number.
bool nan_last_less(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return !std::isnan(a) && std::isnan(b);
  return a < b;
}

// One carried tensor slice: update `update`'s values of one tensor.
struct Carrier {
  std::size_t update = 0;
  const float* values = nullptr;
};

// The estimators' one input form: per parameter tensor, its length and
// its carriers' slices in arrival order (ascending update index).
struct Layout {
  std::size_t updates = 0;           // m, the round's arrivals
  std::vector<std::size_t> offset;   // dense start of tensor t; back() = dim
  std::vector<std::size_t> first;    // carriers of t: [first[t], first[t+1])
  std::vector<Carrier> carriers;

  std::size_t tensors() const { return offset.size() - 1; }
  std::size_t dim() const { return offset.back(); }
  std::size_t length(std::size_t t) const { return offset[t + 1] - offset[t]; }
  std::span<const Carrier> of(std::size_t t) const {
    return {carriers.data() + first[t], first[t + 1] - first[t]};
  }
  // Update u's slice of tensor t, or nullptr where u does not carry it.
  const float* slice(std::size_t t, std::size_t u) const {
    const std::span<const Carrier> c = of(t);
    const auto it = std::lower_bound(
        c.begin(), c.end(), u,
        [](const Carrier& a, std::size_t v) { return a.update < v; });
    return it != c.end() && it->update == u ? it->values : nullptr;
  }
  std::size_t max_length() const {
    std::size_t n = 0;
    for (std::size_t t = 0; t < tensors(); ++t) n = std::max(n, length(t));
    return n;
  }
  std::size_t max_carriers() const {
    std::size_t n = 0;
    for (std::size_t t = 0; t < tensors(); ++t) n = std::max(n, of(t).size());
    return n;
  }
  // Values the estimators read: every carrier's slice once.
  std::size_t carried_values() const {
    std::size_t n = 0;
    for (std::size_t t = 0; t < tensors(); ++t) n += length(t) * of(t).size();
    return n;
  }
};

// Tensors of the given lengths; carried(u, emit) calls emit(t, values)
// for each tensor t that update u carries. Carriers are listed in update
// order, so each tensor's list is in arrival order.
template <class Carried>
Layout make_layout(std::size_t m, std::span<const std::size_t> lengths,
                   Carried carried) {
  Layout lay;
  lay.updates = m;
  lay.offset.assign(lengths.size() + 1, 0);
  for (std::size_t t = 0; t < lengths.size(); ++t) {
    lay.offset[t + 1] = lay.offset[t] + lengths[t];
  }
  lay.first.assign(lengths.size() + 1, 0);
  for (std::size_t u = 0; u < m; ++u) {
    carried(u, [&](std::size_t t, const float*) { ++lay.first[t + 1]; });
  }
  for (std::size_t t = 0; t < lengths.size(); ++t) {
    lay.first[t + 1] += lay.first[t];
  }
  lay.carriers.resize(lay.first.back());
  std::vector<std::size_t> fill(lay.first.begin(), lay.first.end() - 1);
  for (std::size_t u = 0; u < m; ++u) {
    carried(u, [&](std::size_t t, const float* values) {
      lay.carriers[fill[t]++] = {u, values};
    });
  }
  return lay;
}

// The mean family's one sum: per tensor, inv times the sum of
// term(update, value) over the tensor's carriers, in arrival order, in
// double.
template <class Term>
std::vector<float> carrier_sum(const Layout& lay, double inv, Term term) {
  std::vector<float> grad(lay.dim(), 0.0F);
  std::vector<double> acc(lay.max_length());
  for (std::size_t t = 0; t < lay.tensors(); ++t) {
    const std::size_t len = lay.length(t);
    std::fill_n(acc.begin(), len, 0.0);
    for (const Carrier& c : lay.of(t)) {
      for (std::size_t i = 0; i < len; ++i) {
        acc[i] += term(c.update, c.values[i]);
      }
    }
    float* g = grad.data() + lay.offset[t];
    for (std::size_t i = 0; i < len; ++i) {
      g[i] = static_cast<float>(acc[i] * inv);
    }
  }
  return grad;
}

AggregationOutcome aggregate_mean(const Layout& lay) {
  AggregationOutcome out;
  FMS_OP("agg.mean",
         obs::agg_mean_cost(lay.dim(), lay.carried_values()));
  out.grad = carrier_sum(lay, 1.0 / static_cast<double>(lay.updates),
                         [](std::size_t, float x) { return double{x}; });
  return out;
}

AggregationOutcome aggregate_clipped_mean(const Layout& lay, float k) {
  AggregationOutcome out;
  const std::size_t m = lay.updates;
  FMS_OP("agg.clipped_mean",
         obs::agg_clipped_mean_cost(lay.dim(), lay.carried_values()));
  // Each update's squared norm accumulates over its carried coordinates
  // in ascending order, as over its dense vector.
  std::vector<double> sq(m, 0.0);
  for (std::size_t t = 0; t < lay.tensors(); ++t) {
    const std::size_t len = lay.length(t);
    for (const Carrier& c : lay.of(t)) {
      double s = sq[c.update];
      for (std::size_t i = 0; i < len; ++i) {
        s += static_cast<double>(c.values[i]) * c.values[i];
      }
      sq[c.update] = s;
    }
  }
  std::vector<double> norms(m);
  for (std::size_t i = 0; i < m; ++i) norms[i] = std::sqrt(sq[i]);
  const double bound = median_of(norms) * static_cast<double>(k);
  std::vector<double> scale(m, 1.0);
  for (std::size_t i = 0; i < m; ++i) {
    if (bound > 0.0 && norms[i] > bound) {
      scale[i] = bound / norms[i];
      ++out.clipped_updates;
      out.clipped_mass += norms[i] - bound;
    }
  }
  out.grad = carrier_sum(lay, 1.0 / static_cast<double>(m),
                         [&](std::size_t u, float x) { return scale[u] * x; });
  return out;
}

// coordinate_median and trimmed_mean: per tensor, kLanes coordinates at a
// time, the carriers' values go into a rows x kLanes block, the network
// sorts each lane's column, and each lane's statistic is read off the
// sorted rows. Every lane does the scalar loop's double operations in its
// order, so the result is the scalar result.
AggregationOutcome aggregate_per_coordinate(const Layout& lay, bool median,
                                            int f) {
  using detail::kLanes;
  AggregationOutcome out;
  const std::size_t m = lay.updates;
  const std::size_t carried = lay.carried_values();
  FMS_OP(median ? "agg.coordinate_median" : "agg.trimmed_mean",
         median ? obs::agg_coordinate_median_cost(m, lay.dim(), carried)
                : obs::agg_trimmed_mean_cost(m, lay.dim(), carried));
  out.grad.assign(lay.dim(), 0.0F);
  const std::size_t max_rows = lay.max_carriers();
  std::vector<std::vector<detail::Comparator>> networks(max_rows + 1);
  std::vector<char> built(max_rows + 1, 0);
  std::vector<float> block(max_rows * kLanes);
  Lanes nan_lanes = {};
  for (std::size_t l = 0; l < kLanes; ++l) {
    nan_lanes[l] = std::numeric_limits<float>::quiet_NaN();
  }
  for (std::size_t t = 0; t < lay.tensors(); ++t) {
    const std::span<const Carrier> rows = lay.of(t);
    const std::size_t n = rows.size();
    if (n == 0) continue;  // no carrier: no gradient, like the mean
    if (built[n] == 0) {
      networks[n] = detail::sort_network(n);
      built[n] = 1;
    }
    const std::size_t len = lay.length(t);
    const double scale = participation_scale(n, m);
    // The trim clamps to what this tensor's carrier count supports: a
    // tensor carried by one or two updates is passed through as their
    // mean (nothing to trim against).
    const auto uf = median ? std::size_t{0}
                           : static_cast<std::size_t>(clamp_trim(f, n));
    out.trimmed_values += static_cast<long>(2 * uf * len);
    const double kept = static_cast<double>(n - 2 * uf);
    const float* mid = block.data() + (n / 2) * kLanes;
    float* g = out.grad.data() + lay.offset[t];
    for (std::size_t c0 = 0; c0 < len; c0 += kLanes) {
      const std::size_t width = std::min(kLanes, len - c0);
      LaneMask nan = {};
      for (std::size_t r = 0; r < n; ++r) {
        Lanes v = {};
        std::memcpy(&v, rows[r].values + c0, width * sizeof(float));
        nan |= v != v;
        std::memcpy(block.data() + r * kLanes, &v, sizeof v);
      }
      detail::sort_lanes(block.data(), networks[n]);
      Lanes v = {};
      WideLanes stat = {};
      if (median) {
        std::memcpy(&v, mid, sizeof v);
        stat = __builtin_convertvector(v, WideLanes);
        if (n % 2 == 0) {
          std::memcpy(&v, mid - kLanes, sizeof v);
          stat = (__builtin_convertvector(v, WideLanes) + stat) / 2.0;
        }
        stat *= scale;
      } else {
        WideLanes sum = {};
        for (std::size_t r = uf; r < n - uf; ++r) {
          std::memcpy(&v, block.data() + r * kLanes, sizeof v);
          sum += __builtin_convertvector(v, WideLanes);
        }
        stat = sum / kept * scale;
      }
      v = nan ? nan_lanes : __builtin_convertvector(stat, Lanes);
      std::memcpy(g + c0, &v, width * sizeof(float));
    }
  }
  return out;
}

// Krum scores: for each update, the sum of its n-f-2 smallest squared
// distances to the other updates (Blanchard et al., NeurIPS 2017). Each
// pair's distance accumulates tensor by tensor in ascending id order; a
// tensor one of the two lacks contributes the other's squares.
std::vector<double> krum_scores(const Layout& lay, int f_eff) {
  const std::size_t n = lay.updates;
  std::vector<double> dist2(n * n, 0.0);
  std::vector<const float*> at(n, nullptr);
  for (std::size_t t = 0; t < lay.tensors(); ++t) {
    const std::span<const Carrier> carriers = lay.of(t);
    if (carriers.empty()) continue;
    for (const Carrier& c : carriers) at[c.update] = c.values;
    const std::size_t len = lay.length(t);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const float* a = at[i];
        const float* b = at[j];
        if (a == nullptr && b == nullptr) continue;
        double sq = dist2[i * n + j];
        if (a != nullptr && b != nullptr) {
          for (std::size_t c = 0; c < len; ++c) {
            const double d = static_cast<double>(a[c]) - b[c];
            sq += d * d;
          }
        } else {
          const float* x = a != nullptr ? a : b;
          for (std::size_t c = 0; c < len; ++c) {
            const double d = x[c];
            sq += d * d;
          }
        }
        dist2[i * n + j] = sq;
      }
    }
    for (const Carrier& c : carriers) at[c.update] = nullptr;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) dist2[j * n + i] = dist2[i * n + j];
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
    std::sort(row.begin(), row.end(), nan_last_less);
    const std::size_t take = std::min(neighbours, row.size());
    for (std::size_t t = 0; t < take; ++t) scores[i] += row[t];
  }
  return scores;
}

// Lexicographic order of two updates' gradients over the dense
// coordinates, reading 0 where an update does not carry a tensor: <0, 0
// or >0 at the first coordinate that decides.
int compare_content(const Layout& lay, std::size_t a, std::size_t b) {
  for (std::size_t t = 0; t < lay.tensors(); ++t) {
    const float* pa = lay.slice(t, a);
    const float* pb = lay.slice(t, b);
    if (pa == nullptr && pb == nullptr) continue;
    for (std::size_t c = 0; c < lay.length(t); ++c) {
      const float x = pa != nullptr ? pa[c] : 0.0F;
      const float y = pb != nullptr ? pb[c] : 0.0F;
      if (x < y) return -1;
      if (y < x) return 1;
    }
  }
  return 0;
}

AggregationOutcome aggregate_krum(const Layout& lay, int f, bool multi) {
  AggregationOutcome out;
  const std::size_t n = lay.updates;
  FMS_OP("agg.krum", obs::agg_krum_cost(n, lay.dim(), lay.carried_values()));
  if (n == 1) {
    out.grad.assign(lay.dim(), 0.0F);
    for (std::size_t t = 0; t < lay.tensors(); ++t) {
      for (const Carrier& c : lay.of(t)) {
        std::copy_n(c.values, lay.length(t), out.grad.data() + lay.offset[t]);
      }
    }
    out.selected = {0};
    return out;
  }
  const int f_eff = clamp_krum(f, n);
  const std::vector<double> scores = krum_scores(lay, f_eff);
  // Rank by score; ties break by lexicographic gradient content so the
  // ranking is permutation-invariant (score ties are real: colluding
  // clones tie by construction, and symmetric geometries tie honestly).
  // Only identical updates fall back to the index, where either choice
  // commits the same gradient. A NaN score ranks last.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const bool na = std::isnan(scores[a]);
    const bool nb = std::isnan(scores[b]);
    if (na || nb) return na != nb ? nb : a < b;
    if (scores[a] != scores[b]) return scores[a] < scores[b];
    const int c = compare_content(lay, a, b);
    return c != 0 ? c < 0 : a < b;
  });
  const std::size_t keep =
      multi ? n - static_cast<std::size_t>(f_eff) : std::size_t{1};
  out.selected.assign(order.begin(),
                      order.begin() + static_cast<std::ptrdiff_t>(keep));
  std::sort(out.selected.begin(), out.selected.end());
  out.rejected_updates = static_cast<int>(n - keep);
  std::vector<char> chosen(n, 0);
  for (const int i : out.selected) chosen[static_cast<std::size_t>(i)] = 1;
  // A rejected update's term is an exact +0: adding it changes no sum.
  out.grad = carrier_sum(lay, 1.0 / static_cast<double>(keep),
                         [&](std::size_t u, float x) {
                           return chosen[u] != 0 ? double{x} : 0.0;
                         });
  return out;
}

AggregationOutcome run(const AggregatorConfig& cfg, const Layout& lay) {
  switch (cfg.kind) {
    case AggregatorKind::kMean:
      return aggregate_mean(lay);
    case AggregatorKind::kClippedMean:
      return aggregate_clipped_mean(lay, cfg.clip_multiplier);
    case AggregatorKind::kCoordinateMedian:
      return aggregate_per_coordinate(lay, /*median=*/true, 0);
    case AggregatorKind::kTrimmedMean:
      return aggregate_per_coordinate(lay, /*median=*/false, cfg.f);
    case AggregatorKind::kKrum:
      return aggregate_krum(lay, cfg.f, /*multi=*/false);
    case AggregatorKind::kMultiKrum:
      return aggregate_krum(lay, cfg.f, /*multi=*/true);
  }
  return aggregate_mean(lay);
}

// Only the per-coordinate estimators tell a carried zero from an absent
// one; the others see absent coordinates as the exact zeros they are.
bool reads_presence(AggregatorKind kind) {
  return kind == AggregatorKind::kCoordinateMedian ||
         kind == AggregatorKind::kTrimmedMean;
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

AggregationOutcome aggregate_masked(
    const AggregatorConfig& cfg, std::span<const std::size_t> tensor_lengths,
    std::span<const MaskedUpdate> updates) {
  FMS_OP("agg.estimate", {});
  FMS_CHECK_MSG(!updates.empty(), "aggregate needs at least one update");
  const std::size_t tensors = tensor_lengths.size();
  for (const MaskedUpdate& u : updates) {
    std::size_t pos = 0;
    for (std::size_t k = 0; k < u.ids.size(); ++k) {
      FMS_CHECK_MSG(u.ids[k] < tensors && (k == 0 || u.ids[k] > u.ids[k - 1]),
                    "masked update ids must be ascending tensor ids");
      pos += tensor_lengths[u.ids[k]];
    }
    FMS_CHECK_MSG(pos == u.values.size(),
                  "masked update values do not match its tensors");
  }
  return run(cfg, make_layout(updates.size(), tensor_lengths,
                              [&](std::size_t u, auto emit) {
                                const float* at = updates[u].values.data();
                                for (const std::size_t id : updates[u].ids) {
                                  emit(id, at);
                                  at += tensor_lengths[id];
                                }
                              }));
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
  const std::size_t m = updates.size();
  if (presence.empty() || !reads_presence(cfg.kind)) {
    // One tensor of length dim, carried by every update.
    const std::size_t lengths[] = {dim};
    return run(cfg, make_layout(m, lengths, [&](std::size_t u, auto emit) {
                 emit(0, updates[u].data());
               }));
  }
  // Maximal runs of coordinates with one carrier set act as tensors.
  std::vector<std::uint8_t> boundary(dim, 0);
  for (const auto& p : presence) {
    for (std::size_t c = 1; c < dim; ++c) {
      boundary[c] |= static_cast<std::uint8_t>((p[c] != 0) != (p[c - 1] != 0));
    }
  }
  std::vector<std::size_t> run_start;
  for (std::size_t c = 0; c < dim; ++c) {
    if (c == 0 || boundary[c] != 0) run_start.push_back(c);
  }
  std::vector<std::size_t> lengths(run_start.size());
  for (std::size_t r = 0; r < run_start.size(); ++r) {
    const std::size_t end = r + 1 < run_start.size() ? run_start[r + 1] : dim;
    lengths[r] = end - run_start[r];
  }
  return run(cfg, make_layout(m, lengths, [&](std::size_t u, auto emit) {
               for (std::size_t r = 0; r < run_start.size(); ++r) {
                 if (presence[u][run_start[r]] != 0) {
                   emit(r, updates[u].data() + run_start[r]);
                 }
               }
             }));
}

namespace detail {

std::vector<Comparator> sort_network(std::size_t rows) {
  std::size_t n = 1;
  while (n < rows) n <<= 1;
  std::vector<Comparator> network;
  for (std::size_t p = 1; p < n; p <<= 1) {
    for (std::size_t k = p; k >= 1; k >>= 1) {
      for (std::size_t j = k % p; j + k < n; j += 2 * k) {
        for (std::size_t i = 0; i < std::min(k, n - j - k); ++i) {
          const std::size_t lo = i + j;
          const std::size_t hi = i + j + k;
          // Rows past `rows` are +inf pads: a comparator reaching one
          // never moves it, so it is left out.
          if (lo / (2 * p) == hi / (2 * p) && hi < rows) {
            network.push_back({static_cast<std::uint32_t>(lo),
                               static_cast<std::uint32_t>(hi)});
          }
        }
      }
    }
  }
  return network;
}

void sort_lanes(float* block, std::span<const Comparator> network) {
  for (const Comparator& cmp : network) {
    float* a = block + cmp.lo * kLanes;
    float* b = block + cmp.hi * kLanes;
    Lanes x = {};
    Lanes y = {};
    std::memcpy(&x, a, sizeof x);
    std::memcpy(&y, b, sizeof y);
    const LaneMask swap = y < x;
    const Lanes lo = swap ? y : x;
    const Lanes hi = swap ? x : y;
    std::memcpy(a, &lo, sizeof lo);
    std::memcpy(b, &hi, sizeof hi);
  }
}

}  // namespace detail

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  for (const double v : values) {
    if (std::isnan(v)) return v;
  }
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
