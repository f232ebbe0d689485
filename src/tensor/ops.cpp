#include "src/tensor/ops.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>

namespace fms {

int conv_out_size(int in, int kernel, int stride, int padding, int dilation) {
  int eff = dilation * (kernel - 1) + 1;
  int out = (in + 2 * padding - eff) / stride + 1;
  FMS_CHECK_MSG(out > 0, "conv output collapsed to zero");
  return out;
}

namespace {

// Kernel sides up to this keep their tap tables on the stack; the DARTS op
// set uses at most 5.
constexpr int kMaxKernel = 7;
constexpr int kMaxTaps = kMaxKernel * kMaxKernel;

// Eight floats, or eight lane masks, in one register: a GCC/Clang vector
// extension. The GEMM and lane kernels keep their accumulators in these
// across a loop whose length is known only at run time; plain arrays there
// round-trip through memory on every step.
using Vec8 = float __attribute__((vector_size(32)));
using Mask8 = std::int32_t __attribute__((vector_size(32)));
constexpr int kVec = 8;

// Vec8 values go through references: passing one by value changes the
// calling convention with the target's vector width (-Wpsabi).
inline void load8(const float* src, Vec8& v) { std::memcpy(&v, src, sizeof v); }

// dst[i] = src[i] over a row, eight floats at a time, then four.
inline void copy_row(const float* src, float* dst, int len) {
  int i = 0;
  for (; i + kVec <= len; i += kVec) {
    std::memcpy(dst + i, src + i, sizeof(Vec8));
  }
  if (i + kVec / 2 <= len) {
    std::memcpy(dst + i, src + i, sizeof(Vec8) / 2);
    i += kVec / 2;
  }
  for (; i < len; ++i) dst[i] = src[i];
}

// Grows a thread-local conv workspace to at least `len` elements. The
// workspaces never shrink, so a steady-state call allocates nothing.
template <typename T>
T* grown(std::vector<T>& buf, std::size_t len) {
  if (buf.size() < len) buf.resize(len);
  return buf.data();
}

// Output positions [lo, hi) along one axis at which a tap reads inside
// the input: 0 <= o * stride + offset < in. Empty when lo == hi.
struct Span {
  int lo = 0;
  int hi = 0;
};

Span tap_span(int in, int out, int stride, int offset) {
  const int last = in - 1 - offset;
  if (last < 0) return {};
  const int lo = offset >= 0 ? 0 : (stride - 1 - offset) / stride;
  const int hi = std::min(out, stride == 1 ? last + 1 : last / stride + 1);
  return {lo, std::max(lo, hi)};
}

// acc[l] = fmadd(a, b[l], acc[l]) for every lane. GCC compiles the lane
// loop to one vfmadd231ps where fmadd is fused.
inline void fma8(float a, const Vec8& b, Vec8& acc) {
  Vec8 r{};
  for (int l = 0; l < kVec; ++l) r[l] = fmadd(a, b[l], acc[l]);
  acc = r;
}

// acc[l] = fmadd(a[l], b[l], acc[l]) for every lane.
inline void fma8(const Vec8& a, const Vec8& b, Vec8& acc) {
  Vec8 r{};
  for (int l = 0; l < kVec; ++l) r[l] = fmadd(a[l], b[l], acc[l]);
  acc = r;
}

// dst[l] = v[l] in the lanes where take[l] is set, bit for bit.
inline void take_lanes(const Mask8& take, const Vec8& v, Vec8& dst) {
  dst = __builtin_bit_cast(Vec8, (__builtin_bit_cast(Mask8, v) & take) |
                                     (__builtin_bit_cast(Mask8, dst) & ~take));
}

// A gemm A operand: A[i][p] = data[i * row + p * col].
struct Operand {
  const float* data = nullptr;
  std::size_t row = 0, col = 0;
};

// One R-row by V-vector register tile of gemm, for A's rows from a0:
// c[r][j] for r < R and j < V * kVec, each a chain from +0 over p
// ascending.
template <int R, int V>
void gemm_tile(int k, const Operand& a, const float* a0, const float* b,
               std::size_t ldb, float* c, std::size_t ldc) {
  std::array<std::array<Vec8, V>, R> acc{};
  const std::size_t a_row = a.row, a_col = a.col;
  for (int p = 0; p < k; ++p, a0 += a_col, b += ldb) {
    std::array<Vec8, V> bv{};
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) load8(b + v * kVec, bv[v]);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const float ar = a0[r * a_row];
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) fma8(ar, bv[v], acc[r][v]);
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      std::memcpy(c + r * ldc + v * kVec, &acc[r][v], sizeof(Vec8));
    }
  }
}

// The rows of one V-vector column block: 4-row tiles, then one narrower
// tile for the m % 4 rows left.
template <int V>
void gemm_block(int m, int k, const Operand& a, const float* b,
                std::size_t ldb, float* c, std::size_t ldc) {
  int i = 0;
  for (; i + 4 <= m; i += 4) {
    gemm_tile<4, V>(k, a, a.data + i * a.row, b, ldb, c + i * ldc, ldc);
  }
  const float* a0 = a.data + i * a.row;
  c += i * ldc;
  switch (m - i) {
    case 3: gemm_tile<3, V>(k, a, a0, b, ldb, c, ldc); break;
    case 2: gemm_tile<2, V>(k, a, a0, b, ldb, c, ldc); break;
    case 1: gemm_tile<1, V>(k, a, a0, b, ldb, c, ldc); break;
    default: break;
  }
}

// C[m x n] = A[m x k] * B[k x n]. A is read through its strides, so a
// transposed A costs nothing; B and C are
// row-major with leading dimensions ldb and ldc. n must be a multiple of
// kVec: callers zero-pad B's columns and copy out only C's real ones.
// Every C[i][j] is one chain that starts at +0 and adds A[i][p] * B[p][j]
// for p ascending, one fmadd per term, with no split of k, so its value
// does not depend on the tile it lands in.
void gemm(int m, int n, int k, const Operand& a, const float* b,
          std::size_t ldb, float* c, std::size_t ldc) {
  int j = 0;
  for (; j + 2 * kVec <= n; j += 2 * kVec) {
    gemm_block<2>(m, k, a, b + j, ldb, c + j, ldc);
  }
  if (j < n) gemm_block<1>(m, k, a, b + j, ldb, c + j, ldc);
}

std::size_t round_to_vec(int len) {
  return static_cast<std::size_t>((len + kVec - 1) / kVec * kVec);
}

// Calls f(std::integral_constant<int, n>) for a run-time 1 <= n <= kMax,
// so that a register tile's size is a compile-time constant.
template <int kMax, typename F>
void with_count(int n, F&& f) {
  if constexpr (kMax > 1) {
    if (n < kMax) {
      with_count<kMax - 1>(n, f);
      return;
    }
  }
  f(std::integral_constant<int, kMax>{});
}

// The taps one correlation runs, in chain order: tap t reads the grid
// float off[t] past an output position's base and weighs it by the
// weight of tap index k[t] (r * kw + c). Entries past n are never read,
// and not cleared per call.
struct Taps {
  int n = 0;
  std::array<std::size_t, kMaxTaps> off;
  std::array<int, kMaxTaps> k;
};

// Where positions (i, j) lie in one buffer: (i, j) at float at0 + i * di
// + j * dj.
struct Walk {
  std::size_t at0 = 0, di = 0, dj = 0;

  std::size_t at(int i, int j) const {
    return at0 + static_cast<std::size_t>(i) * di +
           static_cast<std::size_t>(j) * dj;
  }
};

// A grid of output positions (i, j), i < ni and j < nj: position (i, j)
// is based at grid float grid.at(i, j) and writes its cell at
// out.at(i, j).
struct Positions {
  int ni = 0, nj = 0;
  Walk grid, out;
};

// Where the pixels of an hp x wp plane land on a zero gh x gw grid: pixel
// (i, j) at cell (i + top, j + left).
struct Placement {
  int hp = 0, wp = 0, top = 0, left = 0, gh = 0, gw = 0;

  std::size_t pixels() const { return static_cast<std::size_t>(hp) * wp; }
  // Whether the plane fills the grid exactly, so that it is its own grid.
  bool fills() const {
    return top == 0 && left == 0 && hp == gh && wp == gw;
  }
};

// One axis of a conv call, its rows or its columns: `in` inputs, `out`
// outputs and kernel taps 0 .. kn - 1. A tap is kept when it reads inside
// the input at some output; the others (all padding, like the off-centre
// taps on a 1x1 plane) are dropped, as the oracle's bounds checks skipped
// them.
struct Axis {
  int kn = 0, lo = 0;  // lo: the first kept tap
  std::array<bool, kMaxKernel> keep{};
  // The forward grid: f_pad cells of padding, then the input, f_len cells
  // in all; output 0 reads its first kept tap at cell f_first.
  int f_pad = 0, f_len = 0, f_first = 0;
  // The grad_x grid: g_pad cells of padding, then grad_y, g_len in all.
  int g_pad = 0, g_len = 0;
  Span live;  // the outputs at which some kept tap reads the input
  // Per kept tap: the grad_x phase (input % stride) whose inputs it
  // reaches from grad_y, or -1 for none, and the cell of the grad_x grid
  // that phase's first input reads through it.
  std::array<int, kMaxKernel> phase{}, shift{};

  Axis(int in, int out, int kn_, const Conv2dSpec& spec) : kn(kn_) {
    const int s = spec.stride, d = spec.dilation, p = spec.padding;
    int hi = -1, g_lo = 0, g_hi = out;
    lo = kn;
    for (int t = 0; t < kn; ++t) {
      const Span reads = tap_span(in, out, s, t * d - p);
      keep[t] = reads.lo < reads.hi;
      // Through tap t, input a + i * s reads grad_y pixel i + (a + p - t
      // * d) / s, for the one phase a where the division is exact.
      const int a = ((t * d - p) % s + s) % s;
      phase[t] = keep[t] && a < in ? a : -1;
      if (phase[t] >= 0) {
        shift[t] = (a + p - t * d) / s;
        g_lo = std::min(g_lo, shift[t]);
        g_hi = std::max(g_hi, shift[t] + (in - a + s - 1) / s);
      }
      if (keep[t]) {
        lo = std::min(lo, t);
        hi = t;
      }
    }
    // With no tap kept every output is +0, over any grid.
    if (hi < 0) lo = hi = 0;
    // Inputs -p + lo * d .. (out - 1) * s - p + hi * d are read.
    f_pad = std::max(0, p - lo * d);
    f_len = f_pad + std::max(in, (out - 1) * s - p + hi * d + 1);
    f_first = f_pad - p + lo * d;
    live = tap_span(in + (hi - lo) * d, out, s, hi * d - p);
    g_pad = -g_lo;
    g_len = g_hi - g_lo;
    for (int& at : shift) at += g_pad;
  }
};

// One conv call's geometry, read by both kernels (their chain orders are
// listed above conv2d_forward): the kept taps of its two axes, and two
// grids. A grid cell is `lanes` floats: the channels rounded up to kVec
// for the depthwise kernel, one plane's pixel for the GEMM path.
//   forward grid  the input plus the padding the kept taps read (the input
//                 itself when they read none); output (oh, ow) reads tap t
//                 at f_base + cell(oh * stride, ow * stride) + fwd.off[t].
//   grad_x grid   grad_y plus the padding the flipped taps read (grad_y
//                 itself when they read none). grad_x runs phase by phase
//                 (ih % stride, iw % stride): in phase (a, b), input (a +
//                 i * stride, b + j * stride) reads grad_y pixel (i, j)
//                 shifted by a per-tap offset, with only the taps that
//                 reach that phase (phase_taps).
// A term the oracle skips reads 0 here: fmadd(0, v, acc) == acc for
// finite v, and an accumulator that starts at +0 never becomes -0.
struct ConvGeom {
  int lanes = 1;
  int h = 0, w = 0, ho = 0, wo = 0, stride = 1, taps = 0, kw = 1;
  Axis vert, horiz;  // along the rows, and along the columns
  std::size_t f_base = 0;
  Taps fwd;  // the kept taps, (r, c) ascending

  ConvGeom(int lanes_, int h_, int w_, int ho_, int wo_, int kh, int kw_,
           const Conv2dSpec& spec)
      : lanes(lanes_), h(h_), w(w_), ho(ho_), wo(wo_), stride(spec.stride),
        taps(kh * kw_), kw(kw_), vert(h, ho, kh, spec),
        horiz(w, wo, kw, spec) {
    const int d = spec.dilation, fw = horiz.f_len;
    f_base = cell(vert.f_first, horiz.f_first, fw);
    fwd.n = 0;
    for (int r = 0; r < kh; ++r) {
      for (int c = 0; c < kw && vert.keep[r]; ++c) {
        if (!horiz.keep[c]) continue;
        const auto t = static_cast<std::size_t>(fwd.n++);
        fwd.k[t] = r * kw + c;
        fwd.off[t] = cell((r - vert.lo) * d, (c - horiz.lo) * d, fw);
      }
    }
  }

  // Offset of cell (r, c) of a grid gw cells wide.
  std::size_t cell(int r, int c, int gw) const {
    return (static_cast<std::size_t>(r) * gw + c) * lanes;
  }
  std::size_t in_cells() const { return static_cast<std::size_t>(h) * w; }
  std::size_t out_cells() const { return static_cast<std::size_t>(ho) * wo; }
  // The input on the forward grid, and grad_y on the grad_x grid.
  Placement input() const {
    return {h, w, vert.f_pad, horiz.f_pad, vert.f_len, horiz.f_len};
  }
  Placement grad() const {
    return {ho, wo, vert.g_pad, horiz.g_pad, vert.g_len, horiz.g_len};
  }
  std::size_t grid_floats(const Placement& at) const {
    return static_cast<std::size_t>(at.gh) * at.gw * lanes;
  }

  // The forward's output positions over its grid.
  Positions forward_positions() const {
    const auto s = static_cast<std::size_t>(stride);
    const auto l = static_cast<std::size_t>(lanes);
    return {ho, wo, {f_base, s * horiz.f_len * l, s * l}, {0, wo * l, l}};
  }

  // The inputs (ih, iw) of phase (a, b), ih % stride == a and iw % stride
  // == b, as grad_x positions over the grad_x grid.
  Positions phase_positions(int a, int b) const {
    const auto s = static_cast<std::size_t>(stride);
    const auto l = static_cast<std::size_t>(lanes);
    return {(h - a + stride - 1) / stride,
            (w - b + stride - 1) / stride,
            {0, horiz.g_len * l, l},
            {(static_cast<std::size_t>(a) * w + b) * l, s * w * l, s * l}};
  }

  // phases[a * stride + b] = the grad_x taps of phase (a, b), (r, c)
  // descending: each kept tap runs in the one phase whose inputs it
  // reaches from grad_y, and adds nothing to the others'.
  void phase_taps(std::vector<Taps>& phases) const {
    phases.resize(static_cast<std::size_t>(stride) * stride);
    for (Taps& run : phases) run.n = 0;
    for (int r = vert.kn - 1; r >= 0; --r) {
      for (int c = horiz.kn - 1; c >= 0; --c) {
        const int a = vert.phase[r], b = horiz.phase[c];
        if (a < 0 || b < 0) continue;
        Taps& run = phases[static_cast<std::size_t>(a * stride + b)];
        const auto n = static_cast<std::size_t>(run.n++);
        run.off[n] = cell(vert.shift[r], horiz.shift[c], horiz.g_len);
        run.k[n] = r * kw + c;
      }
    }
  }
};

// Per-call workspaces of both conv kernels and the pools: the input and
// grad_y grids (the latter then GY's rows for the GEMM path's grad_w), the
// lane kernel's cell tables, the grad_x phases' taps, the packed weights,
// and two work matrices (the lane kernel's output and weight-gradient
// cells; the GEMM path's im2col columns and product).
thread_local std::vector<float> x_grid, gy_grid, packed_w, cols, product;
thread_local std::vector<std::size_t> x_cells, gy_cells;
thread_local std::vector<Taps> phases;

// --- depthwise: the channels in the vector lanes ---

// A depthwise conv: one input channel per group and one output channel per
// input channel, with a kernel wider than one pixel (the first conv of
// every DARTS separable and dilated conv).
bool is_depthwise(int cin, int cout, int kh, int kw, const Conv2dSpec& spec) {
  return spec.groups == cin && cout == cin && kh * kw > 1;
}

// Transposes the 8 x 8 block r in place: r[i][j] becomes r[j][i].
inline void transpose8(std::array<Vec8, kVec>& r) {
  std::array<Vec8, kVec> t;
  for (int i = 0; i < kVec; i += 2) {
    t[i] = __builtin_shufflevector(r[i], r[i + 1], 0, 8, 1, 9, 4, 12, 5, 13);
    t[i + 1] =
        __builtin_shufflevector(r[i], r[i + 1], 2, 10, 3, 11, 6, 14, 7, 15);
  }
  for (int i = 0; i < kVec; i += 4) {
    for (int j = 0; j < 2; ++j) {
      r[i + 2 * j] = __builtin_shufflevector(t[i + j], t[i + j + 2], 0, 1, 8,
                                             9, 4, 5, 12, 13);
      r[i + 2 * j + 1] = __builtin_shufflevector(t[i + j], t[i + j + 2], 2, 3,
                                                 10, 11, 6, 7, 14, 15);
    }
  }
  for (int i = 0; i < kVec / 2; ++i) {
    t[i] = __builtin_shufflevector(r[i], r[i + 4], 0, 1, 2, 3, 8, 9, 10, 11);
    t[i + 4] =
        __builtin_shufflevector(r[i], r[i + 4], 4, 5, 6, 7, 12, 13, 14, 15);
  }
  r = t;
}

// Pixel i of `c` planes of `len` pixels goes to the cp lanes at
// dst + cells[i], lanes c .. cp - 1 zero: dst[cells[i] + ch] =
// src[ch * len + i]. Eight channels by eight pixels at a time go through
// registers.
void to_cells(const float* src, int c, int len, int cp,
              const std::size_t* cells, float* dst) {
  const auto n = static_cast<std::size_t>(len);
  for (int b = 0; b < cp; b += kVec) {
    const auto rows = static_cast<std::size_t>(std::min(kVec, c - b));
    const float* block = src + static_cast<std::size_t>(b) * n;
    std::size_t i = 0;
    for (; i + kVec <= n; i += kVec) {
      std::array<Vec8, kVec> r{};
      for (std::size_t l = 0; l < rows; ++l) load8(block + l * n + i, r[l]);
      transpose8(r);
      for (std::size_t j = 0; j < kVec; ++j) {
        std::memcpy(dst + cells[i + j] + b, &r[j], sizeof(Vec8));
      }
    }
    for (; i < n; ++i) {
      float* cell = dst + cells[i] + b;
      for (std::size_t l = 0; l < kVec; ++l) {
        cell[l] = l < rows ? block[l * n + i] : 0.0F;
      }
    }
  }
}

// Stores eight lanes at dst: as floats, or as bytes (the tap numbers a
// max pool carries in its float lanes).
inline void store8(const Vec8& v, float* dst) {
  std::memcpy(dst, &v, sizeof v);
}
inline void store8(const Vec8& v, std::uint8_t* dst) {
  using Bytes8 = std::uint8_t __attribute__((vector_size(8)));
  const Bytes8 bytes = __builtin_convertvector(v, Bytes8);
  std::memcpy(dst, &bytes, sizeof bytes);
}

// The inverse of to_cells over consecutive cells (cells[i] == i * cp);
// the padding lanes are dropped.
template <typename T>
void from_lanes(const float* src, int c, int len, int cp, T* dst) {
  const auto n = static_cast<std::size_t>(len);
  const auto lanes = static_cast<std::size_t>(cp);
  for (int b = 0; b < cp; b += kVec) {
    const auto rows = static_cast<std::size_t>(std::min(kVec, c - b));
    T* block = dst + static_cast<std::size_t>(b) * n;
    std::size_t i = 0;
    for (; i + kVec <= n; i += kVec) {
      std::array<Vec8, kVec> r;
      for (std::size_t j = 0; j < kVec; ++j) {
        load8(src + (i + j) * lanes + b, r[j]);
      }
      transpose8(r);
      for (std::size_t l = 0; l < rows; ++l) store8(r[l], block + l * n + i);
    }
    for (; i < n; ++i) {
      const float* cell = src + i * lanes + b;
      for (std::size_t l = 0; l < rows; ++l) {
        block[l * n + i] = static_cast<T>(cell[l]);
      }
    }
  }
}

// What a lane correlation does per tap at one output position, eight
// lanes at a time: start from first(i, j) at position (i, j), step(x, w)
// for each tap's grid vector x and weight(k) w, then store.
//
// FmaStep: a chain from +0, acc = fmadd(x, w, acc), w tap k's lanes in
// wl ([kh * kw][cp]). The depthwise conv's y and grad_x run it, and so do
// the avg pool's window sums with weight 1: fmadd(x, 1, acc) == acc + x,
// fused or not.
struct FmaStep {
  const float* wl = nullptr;
  std::size_t cp = 0;
  using Lanes = Vec8;

  float first(int /*i*/, int /*j*/) const { return 0.0F; }
  void start(float /*first*/, Lanes& acc) const { acc = Lanes{}; }
  void weight(int k, int b, Vec8& w) const {
    load8(wl + static_cast<std::size_t>(k) * cp + b, w);
  }
  void step(const Vec8& x, const Vec8& w, Lanes& acc) const {
    fma8(x, w, acc);
  }
  void store(const Lanes& acc, float* at) const {
    std::memcpy(at, &acc, sizeof acc);
  }
};

// MaxStep: a max pool's running maximum and its tap k = r * kernel + c,
// as a float. A value takes a lane over a smaller one, and as a NaN over a
// number; an equal value leaves the earlier one. Output (oh, ow) starts at
// -inf on its window's first in-bounds tap, which so holds the window
// unless a later tap beats it, as in the scalar loop; padding reads -inf
// and never takes a lane. The taps are stored `arg` floats past the
// maxima.
struct MaxStep {
  Pool2dSpec p;
  std::size_t arg = 0;
  struct Lanes {
    Vec8 best, tap;
  };

  float first(int oh, int ow) const {
    const int r = std::max(0, p.padding - oh * p.stride);
    const int c = std::max(0, p.padding - ow * p.stride);
    return static_cast<float>(r * p.kernel + c);
  }
  void start(float tap, Lanes& s) const {
    s.best = Vec8{} - std::numeric_limits<float>::infinity();
    s.tap = Vec8{} + tap;
  }
  void weight(int k, int /*b*/, Vec8& w) const {
    w = Vec8{} + static_cast<float>(k);
  }
  void step(const Vec8& v, const Vec8& tap, Lanes& s) const {
    const Mask8 take = ~(v <= s.best) & (s.best == s.best);
    take_lanes(take, v, s.best);
    take_lanes(take, tap, s.tap);
  }
  void store(const Lanes& s, float* at) const {
    std::memcpy(at, &s.best, sizeof s.best);
    std::memcpy(at + arg, &s.tap, sizeof s.tap);
  }
};

// Output positions per register tile of the lane kernels.
constexpr int kLaneTile = 8;

// T output positions of lanes b .. b + 7, based at grid + base[i] and
// written at out + dst[i], each stepped over the taps in order.
template <int T, typename Step>
void lane_tile(const float* grid, const std::size_t* base, const float* first,
               const Taps& taps, const Step& step, int b,
               const std::size_t* dst, float* out) {
  std::array<typename Step::Lanes, T> acc;
  for (int i = 0; i < T; ++i) step.start(first[i], acc[i]);
  for (int t = 0; t < taps.n; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    Vec8 wv;
    step.weight(taps.k[ti], b, wv);
    const float* g = grid + b + taps.off[ti];
#pragma GCC unroll 8
    for (int i = 0; i < T; ++i) {
      Vec8 xv;
      load8(g + base[i], xv);
      step.step(xv, wv, acc[i]);
    }
  }
  for (int i = 0; i < T; ++i) step.store(acc[i], out + b + dst[i]);
}

// Steps the taps over the grid at every position of `pos`, across cp
// lanes.
template <typename Step>
void lane_correlate(const float* grid, const Positions& pos, const Taps& taps,
                    int cp, const Step& step, float* out) {
  std::array<std::size_t, kLaneTile> base{}, dst{};
  std::array<float, kLaneTile> first{};
  int i = 0, j = 0;
  for (int left = pos.ni * pos.nj; left > 0;) {
    const int np = std::min(kLaneTile, left);
    for (int p = 0; p < np; ++p) {
      const auto at = static_cast<std::size_t>(p);
      base[at] = pos.grid.at(i, j);
      dst[at] = pos.out.at(i, j);
      first[at] = step.first(i, j);
      if (++j == pos.nj) {
        j = 0;
        ++i;
      }
    }
    left -= np;
    for (int b = 0; b < cp; b += kVec) {
      with_count<kLaneTile>(np, [&](auto t) {
        lane_tile<decltype(t)::value>(grid, base.data(), first.data(), taps,
                                      step, b, dst.data(), out);
      });
    }
  }
}

// Taps t0 .. t0 + G - 1 of grad_w for one 8-lane block: each tap's lane
// vector in gwl advances by grad_y times its forward-grid cell, over the
// live output rows and columns in order; the others read only padding.
template <int G>
void lane_wgrad(const ConvGeom& dg, const float* xgrid, const float* gygrid,
                int t0, float* gwl) {
  const Span rows = dg.vert.live, cols = dg.horiz.live;
  const std::size_t cp = static_cast<std::size_t>(dg.lanes);
  const std::size_t step = static_cast<std::size_t>(dg.stride) * cp;
  std::array<Vec8, G> acc;
  std::array<std::size_t, G> off;
  for (int i = 0; i < G; ++i) {
    const auto t = static_cast<std::size_t>(t0 + i);
    load8(gwl + static_cast<std::size_t>(dg.fwd.k[t]) * cp, acc[i]);
    off[i] = dg.fwd.off[t];
  }
  for (int oh = rows.lo; oh < rows.hi; ++oh) {
    const int ow0 = cols.lo;
    const float* x =
        xgrid + dg.f_base +
        dg.cell(oh * dg.stride, ow0 * dg.stride, dg.horiz.f_len);
    const float* gy =
        gygrid + dg.cell(oh + dg.vert.g_pad, ow0 + dg.horiz.g_pad,
                         dg.horiz.g_len);
    for (int ow = ow0; ow < cols.hi; ++ow, x += step, gy += cp) {
      Vec8 gv;
      load8(gy, gv);
#pragma GCC unroll 10
      for (int i = 0; i < G; ++i) {
        Vec8 xv;
        load8(x + off[i], xv);
        fma8(gv, xv, acc[i]);
      }
    }
  }
  for (int i = 0; i < G; ++i) {
    const auto t = static_cast<std::size_t>(t0 + i);
    std::memcpy(gwl + static_cast<std::size_t>(dg.fwd.k[t]) * cp, &acc[i],
                sizeof(Vec8));
  }
}

// Taps per grad_w pass: its chains, grad_y and one input vector stay in
// registers.
constexpr int kLaneTaps = 10;

// Every kept tap's grad_w chains, advanced over one image's output
// positions in passes of at most kLaneTaps taps.
void lane_wgrad_image(const ConvGeom& dg, const float* xgrid,
                      const float* gygrid, float* gwl) {
  const int passes = (dg.fwd.n + kLaneTaps - 1) / kLaneTaps;
  for (int b = 0; b < dg.lanes; b += kVec) {
    for (int t0 = 0, left = dg.fwd.n, pass = passes; pass > 0; --pass) {
      const int g = (left + pass - 1) / pass;
      with_count<kLaneTaps>(g, [&](auto taps) {
        lane_wgrad<decltype(taps)::value>(dg, xgrid + b, gygrid + b, t0,
                                          gwl + b);
      });
      t0 += g;
      left -= g;
    }
  }
}

// The step over the kept taps' weights w[ch][0][k], packed as wl[k * cp +
// ch]; the other lanes are never read.
FmaStep pack_lane_weights(const ConvGeom& dg, const Tensor& w) {
  const int c = w.dim(0);
  float* wl = grown(packed_w, static_cast<std::size_t>(dg.taps) * dg.lanes);
  for (int t = 0; t < dg.fwd.n; ++t) {
    const int k = dg.fwd.k[static_cast<std::size_t>(t)];
    float* row = wl + static_cast<std::size_t>(k) * dg.lanes;
    const float* wk = w.data() + k;
    for (int ch = 0; ch < c; ++ch, wk += dg.taps) row[ch] = *wk;
    std::fill(row + c, row + dg.lanes, 0.0F);
  }
  return {wl, static_cast<std::size_t>(dg.lanes)};
}

// The grid floats of `at`'s pixels, in buf.
const std::size_t* placed(const ConvGeom& dg, const Placement& at,
                          std::vector<std::size_t>& buf) {
  std::size_t* cells = grown(buf, at.pixels());
  for (int i = 0; i < at.hp; ++i) {
    for (int j = 0; j < at.wp; ++j) {
      *cells++ = dg.cell(i + at.top, j + at.left, at.gw);
    }
  }
  return buf.data();
}

// Image `in` of an NCHW tensor of `c` planes placed `at` (cells from
// placed) on a grid in buf whose other cells hold `fill`.
float* fill_grid(const ConvGeom& dg, const Placement& at, const float* t,
                 int in, int c, const std::size_t* cells, float fill,
                 std::vector<float>& buf) {
  const std::size_t floats = dg.grid_floats(at);
  float* grid = grown(buf, floats);
  if (!at.fills()) std::fill(grid, grid + floats, fill);
  to_cells(t + static_cast<std::size_t>(in) * c * at.pixels(), c,
           static_cast<int>(at.pixels()), dg.lanes, cells, grid);
  return grid;
}

// Steps the forward taps over each of n images of an NCHW x of c planes,
// on its forward grid padded with `fill`, and hands the image's output
// lanes to done(image, lanes): `outputs` blocks of out_cells() cells (the
// values, then a max pool's taps).
template <typename Step, typename Done>
void lane_forward(const ConvGeom& dg, const float* x, int n, int c,
                  float fill, const Step& step, int outputs, Done&& done) {
  const std::size_t* xcells = placed(dg, dg.input(), x_cells);
  float* yl = grown(cols, static_cast<std::size_t>(outputs) *
                              dg.out_cells() * dg.lanes);
  const Positions pos = dg.forward_positions();
  for (int in = 0; in < n; ++in) {
    const float* grid =
        fill_grid(dg, dg.input(), x, in, c, xcells, fill, x_grid);
    lane_correlate(grid, pos, dg.fwd, dg.lanes, step, yl);
    done(in, yl);
  }
}

// One image's grad_x from its grad_y grid, phase by phase over the taps
// that phase_taps left in `phases`, into consecutive input cells of gxl.
void lane_grad_x(const ConvGeom& dg, const float* gygrid, const FmaStep& step,
                 float* gxl) {
  for (int a = 0; a < std::min(dg.stride, dg.h); ++a) {
    for (int b = 0; b < std::min(dg.stride, dg.w); ++b) {
      lane_correlate(gygrid, dg.phase_positions(a, b),
                     phases[static_cast<std::size_t>(a * dg.stride + b)],
                     dg.lanes, step, gxl);
    }
  }
}

Tensor depthwise_forward(const Tensor& x, const Tensor& w,
                         const ConvGeom& dg) {
  const int n = x.dim(0), c = x.dim(1);
  Tensor y({n, c, dg.ho, dg.wo});
  const std::size_t plane = static_cast<std::size_t>(c) * dg.out_cells();
  lane_forward(dg, x.data(), n, c, 0.0F, pack_lane_weights(dg, w), 1,
               [&](int in, const float* yl) {
                 from_lanes(yl, c, static_cast<int>(dg.out_cells()), dg.lanes,
                            y.data() + static_cast<std::size_t>(in) * plane);
               });
  return y;
}

Conv2dGrads depthwise_backward(const Tensor& x, const Tensor& w,
                               const Tensor& grad_y, const ConvGeom& dg) {
  const int n = x.dim(0), c = x.dim(1);
  Conv2dGrads g{Tensor({n, c, dg.h, dg.w}), Tensor(w.shape())};
  const FmaStep step = pack_lane_weights(dg, w);
  const std::size_t gw_floats = static_cast<std::size_t>(dg.taps) * dg.lanes;
  float* gwl = grown(product, gw_floats);
  std::fill(gwl, gwl + gw_floats, 0.0F);
  const std::size_t* xcells = placed(dg, dg.input(), x_cells);
  const std::size_t* gycells = placed(dg, dg.grad(), gy_cells);
  dg.phase_taps(phases);
  float* gxl = grown(cols, dg.in_cells() * dg.lanes);
  for (int in = 0; in < n; ++in) {
    const float* gygrid = fill_grid(dg, dg.grad(), grad_y.data(), in, c,
                                    gycells, 0.0F, gy_grid);
    lane_grad_x(dg, gygrid, step, gxl);
    from_lanes(gxl, c, static_cast<int>(dg.in_cells()), dg.lanes,
               g.grad_x.data() + static_cast<std::size_t>(in) * c *
                                     dg.in_cells());
    const float* xgrid =
        fill_grid(dg, dg.input(), x.data(), in, c, xcells, 0.0F, x_grid);
    lane_wgrad_image(dg, xgrid, gygrid, gwl);
  }
  from_lanes(gwl, c, dg.taps, dg.lanes, g.grad_w.data());
  return g;
}

// --- the GEMM path: im2col columns into gemm, one plane per row ---

// The im2col columns of y and grad_x are built this many floats (64 KiB)
// at a time, whatever the batch.
constexpr int kChunkFloats = 16384;

// NCHW planes: plane (image, c) starts at data + (image * channels + c) *
// plane, `plane` floats apart.
template <typename T>
struct PlanesOf {
  T* data = nullptr;
  std::size_t plane = 0;
  int channels = 0;

  T* image(int in) const {
    return data + static_cast<std::size_t>(in) * channels * plane;
  }
  // The planes from channel c on.
  PlanesOf from(int c) const {
    return {data + static_cast<std::size_t>(c) * plane, plane, channels};
  }
};
using Planes = PlanesOf<const float>;
using OutPlanes = PlanesOf<float>;

// `channels` planes per image of `images` images placed `at` on zero grids,
// or read in place when they fill their grids.
Planes grid_planes(const ConvGeom& cg, const Placement& at, const float* src,
                   int images, int channels, std::vector<float>& buf) {
  if (at.fills()) return {src, at.pixels(), channels};
  const std::size_t floats = cg.grid_floats(at);
  const std::size_t count = static_cast<std::size_t>(images) * channels;
  float* grid = grown(buf, count * floats);
  std::fill(grid, grid + count * floats, 0.0F);
  for (std::size_t p = 0; p < count; ++p) {
    float* g = grid + p * floats + cg.cell(at.top, at.left, at.gw);
    for (int i = 0; i < at.hp; ++i, src += at.wp, g += at.gw) {
      copy_row(src, g, at.wp);
    }
  }
  return {grid, floats, channels};
}

// Calls f(q - q0, image, at, len) for each run of positions q0 .. q1 - 1
// of pos, counted across images (ni * nj per image), that lie one after
// another in `walk`'s buffer: a row, or a whole image where its rows
// follow each other there; `at` is the run's first position's.
template <typename F>
void each_run(const Positions& pos, const Walk& walk, int q0, int q1,
              F&& f) {
  const bool flat = walk.di == static_cast<std::size_t>(pos.nj) * walk.dj;
  const int per_image = pos.ni * pos.nj;
  const int nj = flat ? per_image : pos.nj, ni = per_image / nj;
  int image = q0 / per_image, i = q0 % per_image / nj, j = q0 % nj;
  for (int q = q0; q < q1; j = 0) {
    const int len = std::min(nj - j, q1 - q);
    f(q - q0, image, walk.at(i, j), len);
    q += len;
    if (++i == ni) {
      i = 0;
      ++image;
    }
  }
}

// im2col, one row per (plane, tap): what tap t of plane ch of src reads
// at position q (q0 <= q < q1) goes to column q - q0 of row ch * taps.n
// + t, rows ld floats long (q1 - q0 rounded up to kVec), zero past q1 - q0.
void gather_rows(const Planes& src, int chans, const Taps& taps,
                 const Positions& pos, int q0, int q1, float* dst,
                 std::size_t ld) {
  const auto n = static_cast<std::size_t>(taps.n);
  const std::size_t step = pos.grid.dj;
  const Vec8 zero{};  // the padding columns lie in each row's last vector
  for (std::size_t r = 1; r <= chans * n; ++r) {
    std::memcpy(dst + r * ld - kVec, &zero, sizeof zero);
  }
  each_run(pos, pos.grid, q0, q1, [&](int q, int image, std::size_t base,
                                      int len) {
    for (std::size_t t = 0; t < n; ++t) {
      const float* from = src.image(image) + base + taps.off[t];
      float* to = dst + q + t * ld;
      for (int ch = 0; ch < chans; ++ch, from += src.plane, to += n * ld) {
        if (step == 1) {
          copy_row(from, to, len);
        } else {
          for (int l = 0; l < len; ++l) to[l] = from[l * step];
        }
      }
    }
  });
}

// The same im2col transposed, one row per position: row q of dst holds
// position q's chans * taps.n values, then zeros up to ld, that count
// rounded up to kVec. Eight (plane, tap) rows by eight unit-step
// positions go through registers at a time.
void gather_cols(const Planes& src, int chans, const Taps& taps,
                 const Positions& pos, int q1, float* dst, std::size_t ld) {
  const int n = taps.n, k = chans * n;
  const std::size_t step = pos.grid.dj;
  each_run(pos, pos.grid, 0, q1, [&](int q, int image, std::size_t base,
                                     int len) {
    const float* at = src.image(image) + base;
    std::size_t t = 0;  // the tap of row r0 + r, on plane `at`
    for (int r0 = 0; r0 < k; r0 += kVec) {
      const int rows = std::min(kVec, k - r0);
      std::array<const float*, kVec> from{};
      for (int r = 0; r < rows; ++r) {
        from[r] = at + taps.off[t];
        if (++t == static_cast<std::size_t>(n)) {
          t = 0;
          at += src.plane;
        }
      }
      float* to = dst + static_cast<std::size_t>(q) * ld + r0;
      int l = 0;
      for (; step == 1 && l + kVec <= len; l += kVec) {
        std::array<Vec8, kVec> v{};
        for (int r = 0; r < rows; ++r) load8(from[r] + l, v[r]);
        transpose8(v);
        for (int j = 0; j < kVec; ++j) {
          std::memcpy(to + (l + j) * ld, &v[j], sizeof(Vec8));
        }
      }
      for (; l < len; ++l) {
        for (int r = 0; r < kVec; ++r) {
          to[l * ld + r] = r < rows ? from[r][l * step] : 0.0F;
        }
      }
    }
  });
}

// Row r, column q - q0 of a gemm product goes to position q's output cell
// in plane r of dst.
void scatter(const float* src, std::size_t ld, int rows, const OutPlanes& dst,
             const Positions& pos, int q0, int q1) {
  const std::size_t step = pos.out.dj;
  each_run(pos, pos.out, q0, q1, [&](int q, int image, std::size_t out,
                                     int len) {
    float* at = dst.image(image) + out;
    const float* row = src + q;
    for (int r = 0; r < rows; ++r, at += dst.plane, row += ld) {
      const float* __restrict from = row;
      float* __restrict to = at;
      if (step == 1) {
        copy_row(from, to, len);
      } else {
        for (int l = 0; l < len; ++l) to[l * step] = from[l];
      }
    }
  });
}

// The weights as A for a correlation over `taps`: A[i][j * taps.n + t] =
// w[i * si + j * sj + taps.k[t]] for i < m and j < nj. With one tap that
// is w itself at two strides; more taps are packed.
Operand weight_operand(const float* w, int m, std::size_t si, int nj,
                       std::size_t sj, const Taps& taps) {
  if (taps.n == 1) return {w + taps.k[0], si, sj};
  const auto n = static_cast<std::size_t>(taps.n);
  float* a = grown(packed_w, static_cast<std::size_t>(m) * nj * n);
  for (int i = 0; i < m; ++i, a += nj * n) {
    for (std::size_t t = 0; t < n; ++t) {
      const float* wp = w + i * si + taps.k[t];
      for (int j = 0; j < nj; ++j) a[j * n + t] = wp[j * sj];
    }
  }
  return {packed_w.data(), static_cast<std::size_t>(nj) * n, 1};
}

// out = A[m x k] * im2col(src), k = chans * taps.n, at every position of
// pos over `images` images, the columns built a chunk at a time. Without
// a term (k == 0) the outputs keep their +0.
void gemm_correlate(const Operand& a, int m, const Planes& src, int chans,
                    const Taps& taps, const Positions& pos, int images,
                    const OutPlanes& out) {
  const int k = chans * taps.n;
  if (k == 0) return;
  const int total = images * pos.ni * pos.nj;
  constexpr int kBlock = 2 * kVec;
  const int chunk =
      std::min(total, std::max(kBlock, kChunkFloats / k / kBlock * kBlock));
  const std::size_t ld_max = round_to_vec(chunk);
  float* col = grown(cols, static_cast<std::size_t>(k) * ld_max);
  float* c = grown(product, static_cast<std::size_t>(m) * ld_max);
  for (int q0 = 0; q0 < total; q0 += chunk) {
    const int q1 = std::min(total, q0 + chunk);
    const std::size_t ld = round_to_vec(q1 - q0);
    gather_rows(src, chans, taps, pos, q0, q1, col, ld);
    gemm(m, static_cast<int>(ld), k, a, col, ld, c, ld);
    scatter(c, ld, m, out, pos, q0, q1);
  }
}

// y = W * col per group, K in (ic, kept tap) order: A[oc][(ic, t)] =
// w[oc][ic][tap t].
Tensor gemm_forward(const Tensor& x, const Tensor& w, int groups,
                    const ConvGeom& cg) {
  const int n = x.dim(0), cin = x.dim(1), cout = w.dim(0);
  const int cin_g = cin / groups, cout_g = cout / groups;
  const auto taps = static_cast<std::size_t>(cg.taps);
  const Operand wk = weight_operand(w.data(), cout, cin_g * taps, cin_g,
                                    taps, cg.fwd);
  const Planes xs =
      grid_planes(cg, cg.input(), x.data(), n, cin, x_grid);
  Tensor y({n, cout, cg.ho, cg.wo});
  const OutPlanes ys{y.data(), cg.out_cells(), cout};
  for (int gi = 0; gi < groups; ++gi) {
    const Operand a{wk.data + gi * cout_g * wk.row, wk.row, wk.col};
    gemm_correlate(a, cout_g, xs.from(gi * cin_g), cin_g, cg.fwd,
                   cg.forward_positions(), n, ys.from(gi * cout_g));
  }
  return y;
}

// grad_x = W^T * col per group and phase, over the grad_y grid, K oc
// ascending then the phase's taps; grad_w = GY * col^T per group, K the
// (n, oh, ow) positions ascending.
Conv2dGrads gemm_backward(const Tensor& x, const Tensor& w,
                          const Tensor& grad_y, int groups,
                          const ConvGeom& cg) {
  const int n = x.dim(0), cin = x.dim(1), cout = w.dim(0);
  const int cin_g = cin / groups, cout_g = cout / groups;
  Conv2dGrads g{Tensor(x.shape()), Tensor(w.shape())};

  const Planes gys =
      grid_planes(cg, cg.grad(), grad_y.data(), n, cout, gy_grid);
  const OutPlanes gxs{g.grad_x.data(), cg.in_cells(), cin};
  const auto kk = static_cast<std::size_t>(cg.taps);
  cg.phase_taps(phases);
  for (int a = 0; a < std::min(cg.stride, cg.h); ++a) {
    for (int b = 0; b < std::min(cg.stride, cg.w); ++b) {
      const Taps& taps = phases[static_cast<std::size_t>(a * cg.stride + b)];
      for (int gi = 0; gi < groups; ++gi) {
        // A[ic][(oc, t)] = w[gi * cout_g + oc][ic][tap t]
        const Operand wx = weight_operand(
            w.data() + static_cast<std::size_t>(gi) * cout_g * cin_g * kk,
            cin_g, kk, cout_g, cin_g * kk, taps);
        gemm_correlate(wx, cin_g, gys.from(gi * cout_g), cout_g, taps,
                       cg.phase_positions(a, b), n, gxs.from(gi * cin_g));
      }
    }
  }

  const Taps& taps = cg.fwd;
  const Planes xs =
      grid_planes(cg, cg.input(), x.data(), n, cin, x_grid);
  // GY[oc][(n, oh, ow)]: grad_y's planes side by side, in gy_grid now
  // that grad_x is done.
  const Planes gyp{grad_y.data(), cg.out_cells(), cout};
  const int per_image = static_cast<int>(gyp.plane);
  const int positions = n * per_image;
  float* gyr = grown(gy_grid, gyp.plane * cout * n);
  for (int oc = 0; oc < cout; ++oc) {
    for (int in = 0; in < n; ++in) {
      copy_row(gyp.image(in) + oc * gyp.plane,
               gyr + (oc * n + in) * gyp.plane, per_image);
    }
  }
  const int k = cin_g * taps.n;
  const std::size_t ldt = round_to_vec(k);
  float* colt = grown(cols, static_cast<std::size_t>(positions) * ldt);
  float* c = grown(product, static_cast<std::size_t>(cout_g) * ldt);
  for (int gi = 0; gi < groups; ++gi) {
    gather_cols(xs.from(gi * cin_g), cin_g, taps, cg.forward_positions(),
                positions, colt, ldt);
    const Operand a{gyr + static_cast<std::size_t>(gi) * cout_g * positions,
                    static_cast<std::size_t>(positions), 1};
    gemm(cout_g, static_cast<int>(ldt), positions, a, colt, ldt, c, ldt);
    // grad_w[oc][ic][tap t] = c[oc][(ic, t)]
    const auto nt = static_cast<std::size_t>(taps.n);
    for (int oc = 0; oc < cout_g; ++oc) {
      float* gw = g.grad_w.data() +
                  static_cast<std::size_t>(gi * cout_g + oc) * cin_g * kk;
      for (std::size_t t = 0; t < nt; ++t) {
        const float* cr = c + oc * ldt + t;
        float* to = gw + taps.k[t];
        for (int ic = 0; ic < cin_g; ++ic) to[ic * kk] = cr[ic * nt];
      }
    }
  }
  return g;
}

// Checks x, w and spec against each other; the geometry of the kernel the
// conv runs: the channels in the lanes for a depthwise conv (lanes > 1),
// one plane per row otherwise.
ConvGeom conv_geom(const Tensor& x, const Tensor& w, const Conv2dSpec& spec) {
  FMS_CHECK(x.ndim() == 4 && w.ndim() == 4);
  const int cin = x.dim(1), h = x.dim(2), ww = x.dim(3);
  const int cout = w.dim(0), kh = w.dim(2), kw = w.dim(3);
  const int g = spec.groups;
  FMS_CHECK_MSG(cin % g == 0 && cout % g == 0 && cin / g == w.dim(1),
                "channel/group mismatch: cin=" << cin << " cout=" << cout
                                               << " groups=" << g);
  FMS_CHECK_MSG(kh <= kMaxKernel && kw <= kMaxKernel,
                "conv kernel " << kh << "x" << kw << " exceeds "
                               << kMaxKernel);
  const int ho =
      conv_out_size(h, kh, spec.stride, spec.padding, spec.dilation);
  const int wo =
      conv_out_size(ww, kw, spec.stride, spec.padding, spec.dilation);
  const int lanes = is_depthwise(cin, cout, kh, kw, spec)
                        ? static_cast<int>(round_to_vec(cin))
                        : 1;
  return ConvGeom(lanes, h, ww, ho, wo, kh, kw, spec);
}

}  // namespace

// The kernels vectorize across output elements while every element keeps
// the reduction order of the direct loops they replaced (kept as the test
// oracle in tests/conv_reference.h), one fused multiply-add (fmadd) per
// term, so their results are bit-identical to those loops'. Two kernels
// over one ConvGeom:
//   depthwise (groups == cin == cout, kernel > 1): channels in the vector
//     lanes, each image's planes packed as [rows][cols][cp] (cp the
//     channels rounded up to 8, zero lanes) and weights as [kh * kw][cp]:
//       y       per output, a chain from +0 over the taps in (r, c) order,
//               in register tiles of 8 outputs;
//       grad_x  the same correlation over the grad_y grid, taps flipped:
//               (r, c) descending, which is (oh, ow) ascending;
//       grad_w  the kh * kw chains of an 8-channel block advanced together
//               per output position, over (n, oh, ow) ascending.
//     The max and avg pools run the same lane kernel (see the elementwise
//     kernels below).
//   everything else (dense, grouped, channel multiplier > 1, 1x1): im2col
//     columns over the same grids, one plane per row and all images'
//     positions side by side, into one gemm:
//       y       W * col, K in (ic, r, c) order, a chunk of columns at a
//               time;
//       grad_x  per phase, W^T * col over the grad_y grid, K oc ascending
//               then taps (r, c) descending, chunked the same way;
//       grad_w  GY * col^T, K the (n, oh, ow) positions ascending, unsplit.
// Padding a kept tap reads is 0, where fma(v, 0, acc) == acc for finite v.
// The backward does not skip grad_y == 0: with finite operands that term
// adds exactly nothing, and with a NaN/Inf operand it now reaches the
// gradient instead of being dropped.
Tensor conv2d_forward(const Tensor& x, const Tensor& w,
                      const Conv2dSpec& spec) {
  const ConvGeom cg = conv_geom(x, w, spec);
  return cg.lanes > 1 ? depthwise_forward(x, w, cg)
                      : gemm_forward(x, w, spec.groups, cg);
}

Conv2dGrads conv2d_backward(const Tensor& x, const Tensor& w,
                            const Tensor& grad_y, const Conv2dSpec& spec) {
  const ConvGeom cg = conv_geom(x, w, spec);
  FMS_CHECK_MSG(grad_y.ndim() == 4 && grad_y.dim(0) == x.dim(0) &&
                    grad_y.dim(1) == w.dim(0) && grad_y.dim(2) == cg.ho &&
                    grad_y.dim(3) == cg.wo,
                "conv grad_y does not match the output shape "
                    << x.dim(0) << "x" << w.dim(0) << "x" << cg.ho << "x"
                    << cg.wo);
  return cg.lanes > 1 ? depthwise_backward(x, w, grad_y, cg)
                      : gemm_backward(x, w, grad_y, spec.groups, cg);
}

Shape4 Shape4::of(const std::vector<int>& shape) {
  FMS_CHECK_MSG(shape.size() == 4, "expected an NCHW shape, got "
                                       << shape.size() << " dims");
  return {shape[0], shape[1], shape[2], shape[3]};
}

Shape4 Pool2dSpec::out_shape(const Shape4& in) const {
  FMS_CHECK_MSG(kernel >= 1 && kernel <= kMaxKernel && stride >= 1 &&
                    stride <= kMaxKernel && padding >= 0 &&
                    2 * padding <= kernel,
                "pool window k=" << kernel << " stride=" << stride
                                 << " pad=" << padding);
  return {in.n, in.c, conv_out_size(in.h, kernel, stride, padding, 1),
          conv_out_size(in.w, kernel, stride, padding, 1)};
}

// The elementwise kernels keep, per output element, the operation order of
// the scalar loops they replaced (tests/elementwise_reference.h), and
// write explicitly (fmadd) each multiply-add those loops' object code
// fused, so their results are bit-identical to the loops':
//   ReLU     a select, vectorized; the backward reads a byte mask x > 0.
//   BN       per-channel double sums in (n, h, w) order, kBnLanes channels'
//            chains side by side; then one vectorized pass per channel.
//   pools    the depthwise conv's lane kernel over a ConvGeom with one
//            group per channel (pool_geom). Avg: window sums as chains of
//            fmadd(x, 1, acc), which is acc + x, over the kept taps in
//            (r, c) order, then times 1/k^2; the backward scales grad_y by
//            1/k^2 on its grid and runs the depthwise grad_x with weight
//            1, taps (r, c) descending, which is (oh, ow) ascending for
//            each input element. Padding reads 0, which changes no sum
//            that starts at +0 (such a sum is never -0). Max: MaxStep over
//            a grid padded with -inf, each output starting at -inf on its
//            window's first in-bounds tap; the backward scatters in output
//            order. Taps that read only padding are dropped.
//   GAP      one float chain per plane in (h, w) order.

void relu_forward(std::size_t len, const float* __restrict x,
                  float* __restrict y, std::uint8_t* __restrict mask) {
  for (std::size_t i = 0; i < len; ++i) {
    const bool pos = x[i] > 0.0F;
    y[i] = pos ? x[i] : 0.0F;
    mask[i] = pos ? 1 : 0;
  }
}

void relu_backward(std::size_t len, const std::uint8_t* __restrict mask,
                   const float* __restrict gy, float* __restrict gx) {
  for (std::size_t i = 0; i < len; ++i) gx[i] = mask[i] != 0 ? gy[i] : 0.0F;
}

namespace {

// BatchNorm's per-channel sums run this many channels' chains side by
// side: each chain is one double add (or FMA) per element, latency-bound
// on its own.
constexpr int kBnLanes = 4;

// Batch mean and (biased) variance of channels c0 .. c0 + L - 1, each
// summed in (n, h, w) order.
template <int L>
void bn_batch_stats(const Shape4& s, int c0, const float* __restrict x,
                    double* __restrict mean, double* __restrict var) {
  const std::size_t hw = s.plane();
  const std::size_t m = static_cast<std::size_t>(s.n) * hw;
  std::array<double, L> acc{};
  for (int in = 0; in < s.n; ++in) {
    const float* xp = x + (static_cast<std::size_t>(in) * s.c + c0) * hw;
    for (std::size_t i = 0; i < hw; ++i) {
      for (int l = 0; l < L; ++l) acc[l] += xp[l * hw + i];
    }
  }
  std::array<double, L> mu{};
  for (int l = 0; l < L; ++l) {
    mu[l] = acc[l] / static_cast<double>(m);
    acc[l] = 0.0;
  }
  for (int in = 0; in < s.n; ++in) {
    const float* xp = x + (static_cast<std::size_t>(in) * s.c + c0) * hw;
    for (std::size_t i = 0; i < hw; ++i) {
      for (int l = 0; l < L; ++l) {
        const double d = xp[l * hw + i] - mu[l];
        acc[l] = fmadd(d, d, acc[l]);
      }
    }
  }
  for (int l = 0; l < L; ++l) {
    mean[l] = mu[l];
    var[l] = acc[l] / static_cast<double>(m);
  }
}

// Sums of gy and gy * xhat over channels c0 .. c0 + L - 1, each in
// (n, h, w) order.
template <int L>
void bn_grad_sums(const Shape4& s, int c0, const float* __restrict gy,
                  const float* __restrict xhat, double* __restrict sum_gy,
                  double* __restrict sum_gy_xhat) {
  const std::size_t hw = s.plane();
  std::array<double, L> a{}, b{};
  for (int in = 0; in < s.n; ++in) {
    const std::size_t base = (static_cast<std::size_t>(in) * s.c + c0) * hw;
    const float* gp = gy + base;
    const float* hp = xhat + base;
    for (std::size_t i = 0; i < hw; ++i) {
      for (int l = 0; l < L; ++l) {
        const double g = gp[l * hw + i];
        a[l] += g;
        b[l] = fmadd(g, static_cast<double>(hp[l * hw + i]), b[l]);
      }
    }
  }
  for (int l = 0; l < L; ++l) {
    sum_gy[l] = a[l];
    sum_gy_xhat[l] = b[l];
  }
}

// Runs f(c0, lanes) over the channels in blocks of kBnLanes, then one by
// one over the remainder.
template <typename F>
void for_channel_blocks(int c, F&& f) {
  int c0 = 0;
  for (; c0 + kBnLanes <= c; c0 += kBnLanes) {
    f(c0, std::integral_constant<int, kBnLanes>{});
  }
  for (; c0 < c; ++c0) f(c0, std::integral_constant<int, 1>{});
}

}  // namespace

void batchnorm2d_forward_train(const Shape4& s, const float* __restrict x,
                               const BatchNormChannels& ch,
                               float* __restrict y, float* __restrict xhat,
                               float* __restrict inv_std) {
  const std::size_t hw = s.plane();
  for_channel_blocks(s.c, [&](int c0, auto lanes) {
    constexpr int L = decltype(lanes)::value;
    std::array<double, L> mean{}, var{};
    bn_batch_stats<L>(s, c0, x, mean.data(), var.data());
    for (int l = 0; l < L; ++l) {
      const auto ic = static_cast<std::size_t>(c0 + l);
      const float mean_f = static_cast<float>(mean[l]);
      const float var_f = static_cast<float>(var[l]);
      const float is = 1.0F / std::sqrt(var_f + ch.eps);
      inv_std[ic] = is;
      ch.running_mean[ic] = fmadd(1.0F - ch.momentum, ch.running_mean[ic],
                                  ch.momentum * mean_f);
      ch.running_var[ic] = fmadd(1.0F - ch.momentum, ch.running_var[ic],
                                 ch.momentum * var_f);
      const float g = ch.gamma[ic];
      const float b = ch.beta[ic];
      for (int in = 0; in < s.n; ++in) {
        const std::size_t off = (static_cast<std::size_t>(in) * s.c + ic) * hw;
        const float* xp = x + off;
        float* hp = xhat + off;
        float* yp = y + off;
        for (std::size_t i = 0; i < hw; ++i) {
          const float h = (xp[i] - mean_f) * is;
          hp[i] = h;
          yp[i] = fmadd(g, h, b);
        }
      }
    }
  });
}

void batchnorm2d_forward_eval(const Shape4& s, const float* __restrict x,
                              const BatchNormChannels& ch,
                              float* __restrict y) {
  const std::size_t hw = s.plane();
  for (int ic = 0; ic < s.c; ++ic) {
    const auto c = static_cast<std::size_t>(ic);
    const float mean = ch.running_mean[c];
    const float is = 1.0F / std::sqrt(ch.running_var[c] + ch.eps);
    const float g = ch.gamma[c];
    const float b = ch.beta[c];
    for (int in = 0; in < s.n; ++in) {
      const std::size_t off = (static_cast<std::size_t>(in) * s.c + c) * hw;
      const float* xp = x + off;
      float* yp = y + off;
      for (std::size_t i = 0; i < hw; ++i) {
        yp[i] = fmadd(g * (xp[i] - mean), is, b);
      }
    }
  }
}

void batchnorm2d_backward(const Shape4& s, const float* __restrict gy,
                          const float* __restrict xhat,
                          const float* __restrict inv_std,
                          const float* __restrict gamma,
                          float* __restrict gamma_grad,
                          float* __restrict beta_grad, float* __restrict gx) {
  const std::size_t hw = s.plane();
  const double m = static_cast<double>(s.n) * s.h * s.w;
  for_channel_blocks(s.c, [&](int c0, auto lanes) {
    constexpr int L = decltype(lanes)::value;
    std::array<double, L> sum_gy{}, sum_gy_xhat{};
    bn_grad_sums<L>(s, c0, gy, xhat, sum_gy.data(), sum_gy_xhat.data());
    for (int l = 0; l < L; ++l) {
      const auto ic = static_cast<std::size_t>(c0 + l);
      const float dgamma = static_cast<float>(sum_gy_xhat[l]);
      const float dbeta = static_cast<float>(sum_gy[l]);
      gamma_grad[ic] += dgamma;
      beta_grad[ic] += dbeta;
      const float scale = gamma[ic] * inv_std[ic];
      const float mean_gy = static_cast<float>(sum_gy[l] / m);
      const float mean_gy_xhat = static_cast<float>(sum_gy_xhat[l] / m);
      for (int in = 0; in < s.n; ++in) {
        const std::size_t off = (static_cast<std::size_t>(in) * s.c + ic) * hw;
        const float* gp = gy + off;
        const float* hp = xhat + off;
        float* gxp = gx + off;
        for (std::size_t i = 0; i < hw; ++i) {
          gxp[i] = scale * fmadd(-hp[i], mean_gy_xhat, gp[i] - mean_gy);
        }
      }
    }
  });
}

namespace {

// A pool as a depthwise stencil: one group per channel, the channels in
// the vector lanes, dilation 1.
ConvGeom pool_geom(const Shape4& in, const Pool2dSpec& p) {
  const Shape4 out = p.out_shape(in);
  return ConvGeom(static_cast<int>(round_to_vec(in.c)), in.h, in.w, out.h,
                  out.w, p.kernel, p.kernel,
                  Conv2dSpec{p.stride, p.padding, 1, in.c});
}

// The avg pool's step: weight 1 on every tap and lane.
FmaStep unit_weights(const ConvGeom& dg) {
  const std::size_t len = static_cast<std::size_t>(dg.taps) * dg.lanes;
  float* wl = grown(packed_w, len);
  std::fill(wl, wl + len, 1.0F);
  return {wl, static_cast<std::size_t>(dg.lanes)};
}

}  // namespace

void maxpool2d_forward(const Shape4& in, const Pool2dSpec& p,
                       const float* __restrict x, float* __restrict y,
                       std::uint8_t* __restrict tap) {
  const ConvGeom dg = pool_geom(in, p);
  const std::size_t cells = dg.out_cells() * dg.lanes;
  const std::size_t plane = static_cast<std::size_t>(in.c) * dg.out_cells();
  lane_forward(dg, x, in.n, in.c, -std::numeric_limits<float>::infinity(),
               MaxStep{p, cells}, 2, [&](int n, const float* yl) {
                 const auto len = static_cast<int>(dg.out_cells());
                 const std::size_t at = static_cast<std::size_t>(n) * plane;
                 from_lanes(yl, in.c, len, dg.lanes, y + at);
                 from_lanes(yl + cells, in.c, len, dg.lanes, tap + at);
               });
}

void maxpool2d_backward(const Shape4& in, const Pool2dSpec& p,
                        const std::uint8_t* __restrict tap,
                        const float* __restrict gy, float* __restrict gx) {
  const Shape4 out = p.out_shape(in);
  // Tap k's offset from its window's top-left corner in the input plane.
  std::array<std::ptrdiff_t, kMaxTaps> tap_in{};
  for (int k = 0; k < p.kernel * p.kernel; ++k) {
    tap_in[static_cast<std::size_t>(k)] =
        static_cast<std::ptrdiff_t>(k / p.kernel) * in.w + k % p.kernel;
  }
  // Scattered in output order, as the scalar loop did.
  const std::size_t planes = static_cast<std::size_t>(in.n) * in.c;
  for (std::size_t pl = 0; pl < planes; ++pl) {
    float* gxp = gx + pl * in.plane();
    for (int oh = 0; oh < out.h; ++oh) {
      const std::ptrdiff_t corner =
          static_cast<std::ptrdiff_t>(oh * p.stride - p.padding) * in.w -
          p.padding;
      for (int ow = 0; ow < out.w; ++ow, ++tap, ++gy) {
        gxp[corner + static_cast<std::ptrdiff_t>(ow) * p.stride +
            tap_in[*tap]] += *gy;
      }
    }
  }
}

void avgpool2d_forward(const Shape4& in, const Pool2dSpec& p,
                       const float* __restrict x, float* __restrict y) {
  const ConvGeom dg = pool_geom(in, p);
  // count_include_pad=True semantics (matches PyTorch default used by
  // DARTS): divide by the full window size.
  const float inv = 1.0F / static_cast<float>(p.kernel * p.kernel);
  const std::size_t plane = static_cast<std::size_t>(in.c) * dg.out_cells();
  lane_forward(dg, x, in.n, in.c, 0.0F, unit_weights(dg), 1,
               [&](int n, const float* yl) {
                 float* yp = y + static_cast<std::size_t>(n) * plane;
                 from_lanes(yl, in.c, static_cast<int>(dg.out_cells()),
                            dg.lanes, yp);
                 for (std::size_t i = 0; i < plane; ++i) yp[i] *= inv;
               });
}

// grad_y is scaled by 1 / k^2 on its grid, as the scalar loop scaled each
// element before scattering it.
void avgpool2d_backward(const Shape4& in, const Pool2dSpec& p,
                        const float* __restrict gy, float* __restrict gx) {
  const ConvGeom dg = pool_geom(in, p);
  const float inv = 1.0F / static_cast<float>(p.kernel * p.kernel);
  const FmaStep ones = unit_weights(dg);
  const std::size_t* gycells = placed(dg, dg.grad(), gy_cells);
  dg.phase_taps(phases);
  float* gxl = grown(cols, dg.in_cells() * dg.lanes);
  const std::size_t floats = dg.grid_floats(dg.grad());
  const std::size_t plane = static_cast<std::size_t>(in.c) * dg.in_cells();
  for (int n = 0; n < in.n; ++n) {
    float* grid = fill_grid(dg, dg.grad(), gy, n, in.c, gycells, 0.0F, gy_grid);
    for (std::size_t i = 0; i < floats; ++i) grid[i] *= inv;
    lane_grad_x(dg, grid, ones, gxl);
    from_lanes(gxl, in.c, static_cast<int>(dg.in_cells()), dg.lanes,
               gx + static_cast<std::size_t>(n) * plane);
  }
}

void global_avgpool_forward(const Shape4& in, const float* __restrict x,
                            float* __restrict y) {
  const std::size_t hw = in.plane();
  const std::size_t planes = static_cast<std::size_t>(in.n) * in.c;
  const float inv = 1.0F / static_cast<float>(in.h * in.w);
  for (std::size_t p = 0; p < planes; ++p, x += hw) {
    float acc = 0.0F;
    for (std::size_t i = 0; i < hw; ++i) acc += x[i];
    y[p] = acc * inv;
  }
}

void global_avgpool_backward(const Shape4& in, const float* __restrict gy,
                             float* __restrict gx) {
  const std::size_t hw = in.plane();
  const std::size_t planes = static_cast<std::size_t>(in.n) * in.c;
  const float inv = 1.0F / static_cast<float>(in.h * in.w);
  for (std::size_t p = 0; p < planes; ++p) {
    std::fill(gx + p * hw, gx + (p + 1) * hw, gy[p] * inv);
  }
}

MaxPoolResult maxpool2d_forward(const Tensor& x, int kernel, int stride,
                                int padding) {
  const Shape4 in = Shape4::of(x.shape());
  const Pool2dSpec p{kernel, stride, padding};
  MaxPoolResult res{Tensor(p.out_shape(in).dims()), {}};
  res.tap.resize(res.y.numel());
  maxpool2d_forward(in, p, x.data(), res.y.data(), res.tap.data());
  return res;
}

Tensor maxpool2d_backward(const std::vector<int>& x_shape,
                          const std::vector<std::uint8_t>& tap,
                          const Tensor& grad_y, int kernel, int stride,
                          int padding) {
  const Shape4 in = Shape4::of(x_shape);
  const Pool2dSpec p{kernel, stride, padding};
  FMS_CHECK_MSG(grad_y.shape() == p.out_shape(in).dims(),
                "max-pool grad_y " << grad_y.shape_str());
  FMS_CHECK(tap.size() == grad_y.numel());
  Tensor grad_x(x_shape);
  maxpool2d_backward(in, p, tap.data(), grad_y.data(), grad_x.data());
  return grad_x;
}

Tensor avgpool2d_forward(const Tensor& x, int kernel, int stride,
                         int padding) {
  const Shape4 in = Shape4::of(x.shape());
  const Pool2dSpec p{kernel, stride, padding};
  Tensor y(p.out_shape(in).dims());
  avgpool2d_forward(in, p, x.data(), y.data());
  return y;
}

Tensor avgpool2d_backward(const std::vector<int>& x_shape,
                          const Tensor& grad_y, int kernel, int stride,
                          int padding) {
  const Shape4 in = Shape4::of(x_shape);
  const Pool2dSpec p{kernel, stride, padding};
  FMS_CHECK_MSG(grad_y.shape() == p.out_shape(in).dims(),
                "avg-pool grad_y " << grad_y.shape_str());
  Tensor grad_x(x_shape);
  avgpool2d_backward(in, p, grad_y.data(), grad_x.data());
  return grad_x;
}

Tensor global_avgpool_forward(const Tensor& x) {
  const Shape4 in = Shape4::of(x.shape());
  Tensor y({in.n, in.c});
  global_avgpool_forward(in, x.data(), y.data());
  return y;
}

Tensor global_avgpool_backward(const std::vector<int>& x_shape,
                               const Tensor& grad_y) {
  const Shape4 in = Shape4::of(x_shape);
  FMS_CHECK_MSG(grad_y.shape() == std::vector<int>({in.n, in.c}),
                "global avg-pool grad_y " << grad_y.shape_str());
  Tensor grad_x(x_shape);
  global_avgpool_backward(in, grad_y.data(), grad_x.data());
  return grad_x;
}

Tensor relu_forward(const Tensor& x) {
  Tensor y(x.shape());
  const float* xp = x.data();
  float* yp = y.data();
  for (std::size_t i = 0; i < x.numel(); ++i) {
    yp[i] = xp[i] > 0.0F ? xp[i] : 0.0F;
  }
  return y;
}

Tensor relu_backward(const Tensor& x, const Tensor& grad_y) {
  FMS_CHECK(x.same_shape(grad_y));
  Tensor grad_x(x.shape());
  const float* xp = x.data();
  const float* gyp = grad_y.data();
  float* gxp = grad_x.data();
  for (std::size_t i = 0; i < x.numel(); ++i) {
    gxp[i] = xp[i] > 0.0F ? gyp[i] : 0.0F;
  }
  return grad_x;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  FMS_CHECK(a.ndim() == 2 && b.ndim() == 2 && a.dim(1) == b.dim(0));
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (int i = 0; i < m; ++i) {
    for (int kk = 0; kk < k; ++kk) {
      const float av = a.at2(i, kk);
      for (int j = 0; j < n; ++j) c.at2(i, j) += av * b.at2(kk, j);
    }
  }
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  FMS_CHECK(a.ndim() == 2 && b.ndim() == 2 && a.dim(0) == b.dim(0));
  const int k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (int kk = 0; kk < k; ++kk) {
    for (int i = 0; i < m; ++i) {
      const float av = a.at2(kk, i);
      for (int j = 0; j < n; ++j) c.at2(i, j) += av * b.at2(kk, j);
    }
  }
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  FMS_CHECK(a.ndim() == 2 && b.ndim() == 2 && a.dim(1) == b.dim(1));
  const int m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor c({m, n});
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = 0.0F;
      for (int kk = 0; kk < k; ++kk) acc += a.at2(i, kk) * b.at2(j, kk);
      c.at2(i, j) = acc;
    }
  }
  return c;
}

Tensor concat_channels(const std::vector<Tensor>& parts) {
  FMS_CHECK(!parts.empty());
  const int n = parts[0].dim(0), h = parts[0].dim(2), w = parts[0].dim(3);
  int c_total = 0;
  for (const auto& p : parts) {
    FMS_CHECK(p.ndim() == 4 && p.dim(0) == n && p.dim(2) == h && p.dim(3) == w);
    c_total += p.dim(1);
  }
  Tensor y({n, c_total, h, w});
  for (int in = 0; in < n; ++in) {
    int c_off = 0;
    for (const auto& p : parts) {
      const int c = p.dim(1);
      const std::size_t block = static_cast<std::size_t>(c) * h * w;
      const float* src = p.data() + p.offset4(in, 0, 0, 0);
      float* dst = y.data() + y.offset4(in, c_off, 0, 0);
      std::copy(src, src + block, dst);
      c_off += c;
    }
  }
  return y;
}

std::vector<Tensor> split_channels(const Tensor& x, int groups) {
  FMS_CHECK(x.ndim() == 4 && x.dim(1) % groups == 0);
  const int n = x.dim(0), c = x.dim(1) / groups, h = x.dim(2), w = x.dim(3);
  std::vector<Tensor> parts;
  parts.reserve(static_cast<std::size_t>(groups));
  for (int g = 0; g < groups; ++g) {
    Tensor p({n, c, h, w});
    for (int in = 0; in < n; ++in) {
      const std::size_t block = static_cast<std::size_t>(c) * h * w;
      const float* src = x.data() + x.offset4(in, g * c, 0, 0);
      float* dst = p.data() + p.offset4(in, 0, 0, 0);
      std::copy(src, src + block, dst);
    }
    parts.push_back(std::move(p));
  }
  return parts;
}

Tensor softmax(const Tensor& logits) {
  FMS_CHECK(logits.ndim() == 2);
  const int n = logits.dim(0), c = logits.dim(1);
  Tensor p({n, c});
  for (int i = 0; i < n; ++i) {
    float mx = -std::numeric_limits<float>::infinity();
    for (int j = 0; j < c; ++j) mx = std::max(mx, logits.at2(i, j));
    float z = 0.0F;
    for (int j = 0; j < c; ++j) {
      const float e = std::exp(logits.at2(i, j) - mx);
      p.at2(i, j) = e;
      z += e;
    }
    for (int j = 0; j < c; ++j) p.at2(i, j) /= z;
  }
  return p;
}

CrossEntropyResult cross_entropy(const Tensor& logits,
                                 const std::vector<int>& labels) {
  FMS_CHECK(logits.ndim() == 2);
  const int n = logits.dim(0), c = logits.dim(1);
  FMS_CHECK(static_cast<int>(labels.size()) == n);
  CrossEntropyResult res;
  res.probs = softmax(logits);
  res.grad_logits = Tensor({n, c});
  double loss = 0.0;
  int correct = 0;
  const float inv_n = 1.0F / static_cast<float>(n);
  for (int i = 0; i < n; ++i) {
    const int y = labels[static_cast<std::size_t>(i)];
    FMS_CHECK(y >= 0 && y < c);
    const float py = std::max(res.probs.at2(i, y), 1e-12F);
    loss -= std::log(py);
    int argmax = 0;
    float best = res.probs.at2(i, 0);
    for (int j = 1; j < c; ++j) {
      if (res.probs.at2(i, j) > best) {
        best = res.probs.at2(i, j);
        argmax = j;
      }
    }
    if (argmax == y) ++correct;
    for (int j = 0; j < c; ++j) {
      res.grad_logits.at2(i, j) =
          (res.probs.at2(i, j) - (j == y ? 1.0F : 0.0F)) * inv_n;
    }
  }
  res.loss = static_cast<float>(loss / n);
  res.accuracy = static_cast<float>(correct) / static_cast<float>(n);
  return res;
}

}  // namespace fms
