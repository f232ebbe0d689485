// Byzantine-robust gradient aggregation for the server update.
//
// The paper's Eq. 13 averages client gradients — a linear estimator a
// single lying participant can steer arbitrarily (one gradient scaled by
// lambda moves the mean by lambda/m). Update screening (src/fault) is a
// *pre-filter*: it rejects updates that are individually implausible
// (non-finite, absurd norms) but is blind to coordinated, in-range lies.
// The aggregators here are *estimators*: they bound the influence any f
// of n participants can exert on the committed gradient, at the price of
// statistical efficiency on clean rounds.
//
//   mean               Eq. 13 exactly (the default; zero robustness)
//   clipped_mean       per-update L2 clip to median(norms) * k, then mean
//   coordinate_median  per-coordinate median (breakdown point 1/2)
//   trimmed_mean(f)    drop the f lowest and f highest values per
//                      coordinate, average the rest (tolerates f of n)
//   krum(f)            select the single update with the smallest sum of
//                      squared distances to its n-f-2 nearest neighbours
//   multi_krum(f)      average the n-f best-scored updates
//
// Aggregation works per parameter tensor, over the tensor's carriers. An
// update carries whole tensors — the ones its sampled arch selected —
// and every other coordinate counts as an exact zero, the same "unsampled
// ops receive no gradient" semantics the plain average has. All
// aggregators return a dense, mean-equivalent gradient (drop-in for
// (1/m) * sum).
//
// Masks make naive per-coordinate robust statistics useless: a given op's
// parameters appear in only the few updates whose sampled arch includes
// that op, so the "zero" most updates report for it is missing data, not
// a vote. Sorting those zeros into the order statistics trims away the
// real signal (the estimator converges on "no gradient" for every rarely
// sampled op). The per-coordinate estimators therefore compute their
// statistic over only the n_j updates that carry the tensor, rescaled by
// n_j/m so the result stays mean-equivalent — with the mean estimator this
// is an algebraic identity, and with every carrier present it reduces to
// the textbook formula. The trim clamps to what n_j supports.
//
// One estimator core runs every entry point. It takes, per tensor, the
// carriers' contiguous slices in arrival order. The per-coordinate
// estimators hold detail::kLanes adjacent coordinates side by side and
// order each lane's column with Batcher's odd-even merge network; the
// comparators that would touch a padding row are skipped (a +inf pad
// never moves, so skipping is exact). Kept values are summed in ascending
// order in double. The other estimators sum each tensor's carriers in
// arrival order, and Krum merges its pairwise distances over ascending
// tensor ids. A term for a coordinate an update does not carry would add
// an exact +0 to a sum that is never -0, so leaving it out keeps every bit
// of the dense computation.
//
// The search round calls aggregate_masked() straight from each update's
// (ids, values). The dense overloads adapt onto the same core: without
// presence a vector is one tensor of length dim that every update
// carries; with presence, dim splits into maximal runs with one carrier
// set (only the per-coordinate estimators read presence). They, and
// Supernet::dense_from_masked/presence_from_masked, remain only for the
// end-to-end benchmark's probe (fms_benchmark/fms_benchmark.cpp), and go
// with the next change to that benchmark.
//
// Non-finite carriers: a coordinate with any NaN carrier yields NaN under
// coordinate_median and trimmed_mean, as it already does under the
// means, so no order statistic hides a NaN; +-inf are ordinary ordered
// values. Krum ranks an update whose score is NaN after every other, and
// median_of() over a NaN is NaN. The update screen normally rejects
// non-finite updates before they get here; these rules define what
// happens when it is off.
//
// Everything here is deterministic: Krum score ties break by
// lexicographic gradient content (permutation-invariant even for
// colluding clones, which tie by construction), the sort network is
// fixed, and no iteration order depends on hashing (the fms_lint
// unordered-container rule covers this directory). Where a column holds
// zeros of both signs, a coordinate_median of zero may carry either sign
// (as under std::sort, which leaves equal keys in unspecified order);
// added into zeroed gradients, both give the same +0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace fms::agg {

enum class AggregatorKind {
  kMean,
  kClippedMean,
  kCoordinateMedian,
  kTrimmedMean,
  kKrum,
  kMultiKrum,
};

const char* aggregator_name(AggregatorKind kind);

struct AggregatorConfig {
  AggregatorKind kind = AggregatorKind::kMean;
  // Assumed number of malicious updates (trimmed_mean / krum / multi_krum).
  // Clamped per round to what the arrival count can support.
  int f = 1;
  // clipped_mean bound multiplier: per-update norms above
  // median(norms) * clip_multiplier are scaled down to the bound.
  float clip_multiplier = 3.0F;

  // Parses "name" or "name:f" (e.g. "trimmed_mean:2", "krum:3"); for
  // clipped_mean the suffix is the multiplier k ("clipped_mean:2.5").
  // Throws CheckError on unknown names or bad suffixes.
  static AggregatorConfig parse(const std::string& spec);
  std::string to_string() const;
};

// Per-round robustness telemetry alongside the aggregated gradient.
struct AggregationOutcome {
  std::vector<float> grad;      // dense, mean-equivalent
  int clipped_updates = 0;      // updates norm-clipped (clipped_mean)
  double clipped_mass = 0.0;    // total L2 norm removed by clipping
  long trimmed_values = 0;      // coordinate values trimmed (trimmed_mean)
  int rejected_updates = 0;     // updates excluded outright (krum family)
  std::vector<int> selected;    // surviving update indices (krum family)
};

// One update in the masked form the search round collects: the ids of the
// parameter tensors it carries, strictly ascending, and their values
// concatenated in id order.
struct MaskedUpdate {
  std::span<const std::size_t> ids;
  std::span<const float> values;
};

// Aggregates masked updates (in arrival order) over a model whose
// parameter tensor t holds tensor_lengths[t] coordinates. The gradient is
// dense over the concatenated tensors. Requires at least one update.
AggregationOutcome aggregate_masked(
    const AggregatorConfig& cfg, std::span<const std::size_t> tensor_lengths,
    std::span<const MaskedUpdate> updates);

// Dense adapters onto the same core. Every update must have the same
// dimension. Without presence every coordinate is carried by every
// update.
AggregationOutcome aggregate(const AggregatorConfig& cfg,
                             const std::vector<std::vector<float>>& updates);

// presence[u][c] != 0 iff update u carries coordinate c. `presence` must
// match `updates` in shape; an empty vector means fully dense. Absent
// coordinates must be exact zeros in `updates`. Only coordinate_median and
// trimmed_mean read presence; the other estimators see the zeros.
AggregationOutcome aggregate(
    const AggregatorConfig& cfg, const std::vector<std::vector<float>>& updates,
    const std::vector<std::vector<std::uint8_t>>& presence);

namespace detail {

// Coordinates the per-coordinate estimators hold side by side.
inline constexpr std::size_t kLanes = 16;

// Rows lo < hi of one compare-exchange: afterwards row lo holds the
// smaller value of each lane.
struct Comparator {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
};

// Batcher's odd-even merge sort network for the next power of two >=
// rows, keeping only the comparators between real rows.
std::vector<Comparator> sort_network(std::size_t rows);

// Runs `network` over a rows x kLanes row-major block, sorting each lane's
// column ascending. Each compare-exchange swaps or keeps, so a column
// stays a permutation of its bits; a NaN never swaps.
void sort_lanes(float* block, std::span<const Comparator> network);

}  // namespace detail

// --- robust scalar statistics (shared by screening and the reward channel) ---

// Median with even-count averaging. Empty input returns 0, and input
// with a NaN returns NaN.
double median_of(std::vector<double> values);

// Median absolute deviation around `center`.
double mad_of(const std::vector<double>& values, double center);

// Adaptive screening bound: median + k * MAD over the round's update
// norms. Returns `fallback` (the fixed cap) when fewer than min_count
// norms are available — robust statistics need a quorum of their own.
double adaptive_norm_bound(const std::vector<double>& norms, double k,
                           int min_count, double fallback);

// Winsorization band [Q1 - k*IQR, Q3 + k*IQR] of the round's rewards
// (quartiles by linear interpolation). With fewer than 4 samples the
// band is degenerate-safe: it spans the observed min/max, clamping
// nothing.
struct WinsorBounds {
  double lo = 0.0;
  double hi = 0.0;
};
WinsorBounds winsor_bounds(std::vector<double> rewards, double k);

}  // namespace fms::agg
