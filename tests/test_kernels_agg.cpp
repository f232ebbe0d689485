// Aggregation estimator contract, selected with `ctest -L kernels`: the
// estimator core of src/agg against the dense loops in agg_reference.h
// over seeded random rounds (every estimator, K in [1, 64], trim f in
// [0, 6], tensor lengths around the 16-coordinate lane width, tensors
// with 0, 1, 2 or all carriers, ties and zeros of both signs), through
// the masked entry point and both dense adapters; the sort network
// itself (its size, its sorting, a dropped comparator caught); that a
// median's zero sign cannot reach the weights; and the non-finite rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/agg/aggregator.h"
#include "src/common/rng.h"
#include "src/nas/supernet.h"
#include "src/nn/optim.h"
#include "tests/agg_reference.h"

namespace fms {
namespace {

using agg::AggregationOutcome;
using agg::AggregatorConfig;
using agg::AggregatorKind;

constexpr int kDraws = 400;
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

constexpr std::array<AggregatorKind, 6> kKinds = {
    AggregatorKind::kMean,        AggregatorKind::kClippedMean,
    AggregatorKind::kCoordinateMedian, AggregatorKind::kTrimmedMean,
    AggregatorKind::kKrum,        AggregatorKind::kMultiKrum};

// One round in both forms: masked updates (ids + concatenated values)
// and their dense vectors with presence masks.
struct Round {
  AggregatorConfig cfg;
  std::vector<std::size_t> lengths;
  std::vector<std::vector<std::size_t>> ids;
  std::vector<std::vector<float>> values;
  std::vector<std::vector<float>> dense;
  std::vector<std::vector<std::uint8_t>> presence;

  std::vector<agg::MaskedUpdate> masked() const {
    std::vector<agg::MaskedUpdate> out;
    for (std::size_t u = 0; u < ids.size(); ++u) {
      out.push_back({ids[u], values[u]});
    }
    return out;
  }
  std::string str() const {
    std::ostringstream os;
    os << cfg.to_string() << " K=" << ids.size() << " lengths";
    for (const std::size_t len : lengths) os << ' ' << len;
    return os.str();
  }
};

// Builds the masked and dense forms from carries[u][t] and a value draw.
template <class Draw>
Round make_round(const AggregatorConfig& cfg, std::vector<std::size_t> lengths,
                 const std::vector<std::vector<char>>& carries, Draw draw) {
  Round r;
  r.cfg = cfg;
  r.lengths = std::move(lengths);
  std::size_t dim = 0;
  for (const std::size_t len : r.lengths) dim += len;
  for (const auto& row : carries) {
    std::vector<std::size_t> ids;
    std::vector<float> values;
    std::vector<float> dense(dim, 0.0F);
    std::vector<std::uint8_t> presence(dim, 0);
    std::size_t off = 0;
    for (std::size_t t = 0; t < r.lengths.size(); ++t) {
      if (row[t] != 0) {
        ids.push_back(t);
        for (std::size_t i = 0; i < r.lengths[t]; ++i) {
          const float v = draw();
          values.push_back(v);
          dense[off + i] = v;
          presence[off + i] = 1;
        }
      }
      off += r.lengths[t];
    }
    r.ids.push_back(std::move(ids));
    r.values.push_back(std::move(values));
    r.dense.push_back(std::move(dense));
    r.presence.push_back(std::move(presence));
  }
  return r;
}

// A random round. Lengths sit around the lane width (1, 15, 16, 17, ...)
// or anywhere up to 80; each tensor has no carrier, one, two, all, or a
// random subset. Values are normal draws, ties from a small set that
// holds zeros of both signs, or normal draws mixed with +-2^30, whose
// sums depend on their order. Per-coordinate and mean rounds
// sometimes carry +-inf too (Krum's reference sorts distances, and
// inf - inf would put a NaN there).
Round draw_round(Rng& rng) {
  AggregatorConfig cfg;
  cfg.kind = kKinds[static_cast<std::size_t>(rng.randint(0, 5))];
  cfg.f = rng.randint(0, 6);
  constexpr std::array<float, 3> kClip = {0.5F, 1.0F, 3.0F};
  cfg.clip_multiplier = kClip[static_cast<std::size_t>(rng.randint(0, 2))];
  const int k = rng.bernoulli(0.2) ? rng.randint(1, 3) : rng.randint(1, 64);
  const int tensors = rng.randint(1, 10);
  constexpr std::array<std::size_t, 7> kLengths = {1, 15, 16, 17, 31, 32, 33};
  std::vector<std::size_t> lengths;
  for (int t = 0; t < tensors; ++t) {
    const int at = rng.randint(0, static_cast<int>(kLengths.size()) - 1);
    lengths.push_back(rng.bernoulli(0.6)
                          ? kLengths[static_cast<std::size_t>(at)]
                          : static_cast<std::size_t>(rng.randint(1, 80)));
  }
  std::vector<std::vector<char>> carries(static_cast<std::size_t>(k),
                                         std::vector<char>(lengths.size(), 0));
  for (std::size_t t = 0; t < lengths.size(); ++t) {
    const int mode = rng.randint(0, 4);
    const double p = rng.uniform(0.0F, 1.0F);
    std::vector<int> pick;  // the carriers of modes 1 and 2
    for (int c = 0; c < std::min(mode, k); ++c) {
      int u = rng.randint(0, k - 1);
      while (std::find(pick.begin(), pick.end(), u) != pick.end()) {
        u = (u + 1) % k;
      }
      pick.push_back(u);
    }
    for (int u = 0; u < k; ++u) {
      char& c = carries[static_cast<std::size_t>(u)][t];
      switch (mode) {
        case 0: c = 0; break;
        case 1:
        case 2:
          c = std::find(pick.begin(), pick.end(), u) != pick.end() ? 1 : 0;
          break;
        case 3: c = 1; break;
        default: c = rng.bernoulli(p) ? 1 : 0; break;
      }
    }
  }
  const int mode = rng.randint(0, 2);  // normal, ties, wide magnitudes
  const bool krum = cfg.kind == AggregatorKind::kKrum ||
                    cfg.kind == AggregatorKind::kMultiKrum;
  const bool infs = !krum && rng.bernoulli(0.15);
  constexpr std::array<float, 7> kTies = {-1.0F, -0.0F, 0.0F, 0.5F,
                                          1.0F,  2.0F,  -0.0F};
  return make_round(cfg, std::move(lengths), carries, [&] {
    if (infs && rng.bernoulli(0.05)) return rng.bernoulli(0.5) ? kInf : -kInf;
    if (mode == 1) return kTies[static_cast<std::size_t>(rng.randint(0, 6))];
    // +-2^30 among unit draws: a double sum carrying a 2^30 drops the
    // unit draws' low bits, and once the 2^30s cancel those bits show in
    // the float result, so a sum taken in another order differs.
    if (mode == 2 && rng.bernoulli(0.3)) {
      return rng.bernoulli(0.5) ? 0x1p30F : -0x1p30F;
    }
    return rng.normal(0.0F, 1.0F);
  });
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Whether coordinate c's column holds zeros of both signs: the one place
// a median may differ from std::sort's, which leaves equal keys in
// unspecified order.
bool mixed_zero_signs(const Round& r, std::size_t c, bool use_presence) {
  bool neg = false;
  bool pos = false;
  for (std::size_t u = 0; u < r.dense.size(); ++u) {
    if (use_presence && r.presence[u][c] == 0) continue;
    const float v = r.dense[u][c];
    // fms-lint: allow(float-eq) -- a zero of either sign, exactly
    if (v == 0.0F) (std::signbit(v) ? neg : pos) = true;
  }
  return neg && pos;
}

::testing::AssertionResult same_outcome(const char* what, const Round& r,
                                        bool use_presence,
                                        const AggregationOutcome& got,
                                        const AggregationOutcome& want) {
  auto fail = [&] {
    return ::testing::AssertionFailure() << what << " " << r.str() << ": ";
  };
  if (got.grad.size() != want.grad.size()) {
    return fail() << "dim " << got.grad.size() << ", oracle "
                  << want.grad.size();
  }
  for (std::size_t c = 0; c < got.grad.size(); ++c) {
    if (same_bits(got.grad[c], want.grad[c])) continue;
    // fms-lint: allow(float-eq) -- both zeros, of either sign
    const bool zeros = got.grad[c] == 0.0F && want.grad[c] == 0.0F;
    if (r.cfg.kind == AggregatorKind::kCoordinateMedian && zeros &&
        mixed_zero_signs(r, c, use_presence)) {
      continue;
    }
    return fail() << "grad[" << c << "] = " << got.grad[c] << ", oracle "
                  << want.grad[c];
  }
  if (got.clipped_updates != want.clipped_updates ||
      !same_bits(got.clipped_mass, want.clipped_mass)) {
    return fail() << "clipped " << got.clipped_updates << "/"
                  << got.clipped_mass << ", oracle " << want.clipped_updates
                  << "/" << want.clipped_mass;
  }
  if (got.trimmed_values != want.trimmed_values) {
    return fail() << "trimmed " << got.trimmed_values << ", oracle "
                  << want.trimmed_values;
  }
  if (got.rejected_updates != want.rejected_updates ||
      got.selected != want.selected) {
    return fail() << "krum selection differs";
  }
  return ::testing::AssertionSuccess();
}

TEST(AggKernel, EveryEntryPointMatchesTheDenseLoops) {
  Rng rng(2606);
  for (int d = 0; d < kDraws; ++d) {
    const Round r = draw_round(rng);
    const std::vector<agg::MaskedUpdate> masked = r.masked();
    const AggregationOutcome want =
        agg_ref::aggregate(r.cfg, r.dense, r.presence);
    EXPECT_TRUE(same_outcome("masked", r, true,
                             agg::aggregate_masked(r.cfg, r.lengths, masked),
                             want));
    EXPECT_TRUE(same_outcome("dense+presence", r, true,
                             agg::aggregate(r.cfg, r.dense, r.presence), want));
    EXPECT_TRUE(same_outcome("dense", r, false, agg::aggregate(r.cfg, r.dense),
                             agg_ref::aggregate(r.cfg, r.dense, {})));
  }
}

// The round's shapes: many tensors, K up to 64 with every tensor carried
// by a random share of the updates, and the shared tensors by all.
TEST(AggKernel, SupernetShapedRoundsMatchTheDenseLoops) {
  Rng rng(2607);
  for (const AggregatorKind kind : kKinds) {
    AggregatorConfig cfg;
    cfg.kind = kind;
    cfg.f = 5;
    const int k = kind == AggregatorKind::kKrum ||
                          kind == AggregatorKind::kMultiKrum
                      ? 12
                      : 64;
    std::vector<std::size_t> lengths;
    for (int t = 0; t < 60; ++t) {
      lengths.push_back(static_cast<std::size_t>(rng.randint(1, 300)));
    }
    std::vector<std::vector<char>> carries(
        static_cast<std::size_t>(k), std::vector<char>(lengths.size(), 0));
    for (std::size_t t = 0; t < lengths.size(); ++t) {
      const bool shared = t < 4 || t + 2 >= lengths.size();
      for (auto& row : carries) row[t] = shared || rng.bernoulli(0.15) ? 1 : 0;
    }
    const Round r = make_round(cfg, lengths, carries,
                               [&] { return rng.normal(0.0F, 0.1F); });
    EXPECT_TRUE(same_outcome(
        "masked", r, true, agg::aggregate_masked(cfg, r.lengths, r.masked()),
        agg_ref::aggregate(cfg, r.dense, r.presence)));
  }
}

// --- the sort network ---

// Sorts `rows`-row blocks of random ties with `network` and reports
// whether every lane came out as std::sort orders it, bit for bit.
bool network_sorts(const std::vector<agg::detail::Comparator>& network,
                   std::size_t rows, Rng& rng, int blocks) {
  using agg::detail::kLanes;
  std::vector<float> block(rows * kLanes);
  for (int b = 0; b < blocks; ++b) {
    for (float& v : block) {
      v = rng.bernoulli(0.3) ? static_cast<float>(rng.randint(-2, 2))
                             : rng.normal(0.0F, 1.0F);
    }
    std::vector<float> want = block;
    agg::detail::sort_lanes(block.data(), network);
    for (std::size_t l = 0; l < kLanes; ++l) {
      std::vector<float> col(rows);
      for (std::size_t r = 0; r < rows; ++r) col[r] = want[r * kLanes + l];
      std::sort(col.begin(), col.end());
      for (std::size_t r = 0; r < rows; ++r) {
        if (!same_bits(block[r * kLanes + l], col[r])) return false;
      }
    }
  }
  return true;
}

TEST(AggSortNetwork, IsBatchersOddEvenMergeSort) {
  EXPECT_TRUE(agg::detail::sort_network(1).empty());
  EXPECT_EQ(agg::detail::sort_network(2).size(), 1U);
  EXPECT_EQ(agg::detail::sort_network(8).size(), 19U);
  EXPECT_EQ(agg::detail::sort_network(16).size(), 63U);
  EXPECT_EQ(agg::detail::sort_network(64).size(), 543U);
  // Rows past a non-power of two are pads: no comparator reaches one.
  for (std::size_t rows = 1; rows <= 70; ++rows) {
    for (const agg::detail::Comparator& c : agg::detail::sort_network(rows)) {
      EXPECT_LT(c.lo, c.hi);
      EXPECT_LT(c.hi, rows);
    }
  }
}

TEST(AggSortNetwork, SortsEveryLaneAndKeepsItsBits) {
  Rng rng(2608);
  for (std::size_t rows = 1; rows <= 70; ++rows) {
    EXPECT_TRUE(network_sorts(agg::detail::sort_network(rows), rows, rng, 8))
        << rows << " rows";
  }
}

// A mutation of the network: with any one comparator dropped, some lane
// comes out unsorted, so the oracle comparisons above would fail.
TEST(AggSortNetwork, ADroppedComparatorIsCaught) {
  Rng rng(2609);
  for (const std::size_t rows : {4U, 7U, 16U, 45U, 64U}) {
    const std::vector<agg::detail::Comparator> network =
        agg::detail::sort_network(rows);
    for (const std::size_t drop : {std::size_t{0}, network.size() / 2,
                                   network.size() - 1}) {
      std::vector<agg::detail::Comparator> mutated = network;
      mutated.erase(mutated.begin() + static_cast<std::ptrdiff_t>(drop));
      EXPECT_FALSE(network_sorts(mutated, rows, rng, 64))
          << rows << " rows, comparator " << drop << " dropped";
    }
  }
}

// --- a median's zero sign ---

// A coordinate_median over a column of -0 and +0 may return either zero.
// The round adds the aggregate into zeroed gradients, where both give the
// same +0, so the SGD step and the weights are identical either way.
TEST(AggKernel, MedianZeroSignLeavesTheWeightsIdentical) {
  SupernetConfig sc;
  sc.num_cells = 2;
  sc.num_nodes = 2;
  sc.stem_channels = 4;
  sc.image_size = 8;
  Rng rng_a(5);
  Rng rng_b(5);
  Supernet a(sc, rng_a);
  Supernet b(sc, rng_b);
  Rng rng(2610);
  std::vector<float> pos(a.param_count());
  for (float& v : pos) v = rng.bernoulli(0.5) ? 0.0F : rng.normal(0.0F, 0.1F);
  std::vector<float> neg = pos;
  for (float& v : neg) {
    // fms-lint: allow(float-eq) -- flips the sign of the exact zeros
    if (v == 0.0F) v = -0.0F;
  }
  SGD opt_a(SGD::Options{});
  SGD opt_b(SGD::Options{});
  for (int step = 0; step < 2; ++step) {
    a.zero_grad();
    b.zero_grad();
    a.add_flat_grads(pos);
    b.add_flat_grads(neg);
    for (std::size_t i = 0; i < a.params().size(); ++i) {
      const std::vector<float>& ga = a.params()[i]->grad.vec();
      const std::vector<float>& gb = b.params()[i]->grad.vec();
      ASSERT_EQ(std::memcmp(ga.data(), gb.data(), ga.size() * sizeof(float)),
                0);
    }
    opt_a.step(a.params());
    opt_b.step(b.params());
  }
  const std::vector<float> ta = a.flat_values();
  const std::vector<float> tb = b.flat_values();
  EXPECT_EQ(std::memcmp(ta.data(), tb.data(), ta.size() * sizeof(float)), 0);
}

// --- non-finite carriers ---

// Two tensors of 20 coordinates, 7 updates carrying both, and one NaN in
// update 3 at coordinate 5 (tensor 0, lane 5 of the first block). Every
// per-coordinate estimator returns NaN there and is unchanged elsewhere;
// the dense entry points agree with the masked one.
TEST(AggKernel, ANaNCarrierYieldsNaNUnderEveryPerCoordinateEstimator) {
  Rng rng(2611);
  for (const AggregatorKind kind :
       {AggregatorKind::kCoordinateMedian, AggregatorKind::kTrimmedMean,
        AggregatorKind::kMean, AggregatorKind::kClippedMean}) {
    AggregatorConfig cfg;
    cfg.kind = kind;
    cfg.f = 2;
    const std::vector<std::vector<char>> carries(7, std::vector<char>(2, 1));
    Round clean = make_round(cfg, {20, 20}, carries,
                             [&] { return rng.normal(0.0F, 1.0F); });
    Round poisoned = clean;
    // The NaN sits at several heights of the column, so the network meets
    // it on both sides of its comparators.
    for (const std::size_t u : {0U, 3U, 6U}) {
      poisoned.values = clean.values;
      poisoned.dense = clean.dense;
      poisoned.values[u][5] = kNaN;
      poisoned.dense[u][5] = kNaN;
      const AggregationOutcome base =
          agg::aggregate_masked(cfg, clean.lengths, clean.masked());
      const std::vector<AggregationOutcome> got = {
          agg::aggregate_masked(cfg, poisoned.lengths, poisoned.masked()),
          agg::aggregate(cfg, poisoned.dense, poisoned.presence),
          agg::aggregate(cfg, poisoned.dense)};
      for (const AggregationOutcome& out : got) {
        SCOPED_TRACE(std::string(agg::aggregator_name(kind)) + " NaN in " +
                     std::to_string(u));
        EXPECT_TRUE(std::isnan(out.grad[5]));
        if (kind == AggregatorKind::kClippedMean) continue;  // norms moved
        for (std::size_t c = 0; c < out.grad.size(); ++c) {
          if (c != 5) {
            EXPECT_TRUE(same_bits(out.grad[c], base.grad[c])) << c;
          }
        }
      }
    }
  }
}

// An update with a NaN has a NaN score and ranks after every other, so
// Krum never selects it while a finite-score update exists.
TEST(AggKernel, KrumRanksANaNUpdateLast) {
  Rng rng(2612);
  for (const AggregatorKind kind :
       {AggregatorKind::kKrum, AggregatorKind::kMultiKrum}) {
    AggregatorConfig cfg;
    cfg.kind = kind;
    cfg.f = 1;
    const std::vector<std::vector<char>> carries(6, std::vector<char>(3, 1));
    Round r = make_round(cfg, {4, 17, 3}, carries,
                         [&] { return rng.normal(0.0F, 1.0F); });
    r.values[2][9] = kNaN;
    r.dense[2][9] = kNaN;
    for (const AggregationOutcome& out :
         {agg::aggregate_masked(cfg, r.lengths, r.masked()),
          agg::aggregate(cfg, r.dense)}) {
      EXPECT_EQ(std::count(out.selected.begin(), out.selected.end(), 2), 0)
          << agg::aggregator_name(kind);
      for (const float g : out.grad) EXPECT_TRUE(std::isfinite(g));
    }
  }
}

TEST(AggKernel, MedianOfANaNIsNaN) {
  EXPECT_TRUE(std::isnan(agg::median_of({1.0, std::nan(""), 0.5})));
  EXPECT_DOUBLE_EQ(agg::median_of({1.0, 3.0, 0.5}), 1.0);
}

TEST(AggKernel, MaskedEntryPointRejectsMalformedUpdates) {
  const std::vector<std::size_t> lengths = {2, 3};
  const std::vector<std::size_t> unsorted = {1, 0};
  const std::vector<std::size_t> past = {2};
  const std::vector<std::size_t> one = {1};
  const std::vector<float> five(5, 1.0F);
  const std::vector<float> two(2, 1.0F);
  AggregatorConfig cfg;
  cfg.kind = AggregatorKind::kTrimmedMean;
  EXPECT_THROW(agg::aggregate_masked(cfg, lengths, {}), CheckError);
  const std::vector<agg::MaskedUpdate> bad_order = {{unsorted, five}};
  EXPECT_THROW(agg::aggregate_masked(cfg, lengths, bad_order), CheckError);
  const std::vector<agg::MaskedUpdate> bad_id = {{past, two}};
  EXPECT_THROW(agg::aggregate_masked(cfg, lengths, bad_id), CheckError);
  const std::vector<agg::MaskedUpdate> bad_size = {{one, two}};
  EXPECT_THROW(agg::aggregate_masked(cfg, lengths, bad_size), CheckError);
}

}  // namespace
}  // namespace fms
