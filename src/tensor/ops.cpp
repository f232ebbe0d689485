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
// The weight gradient builds im2col rows this many floats (16 KiB) at a
// time, so its workspace stays small whatever the plane size.
constexpr int kColFloats = 4096;

// Eight floats (or lane masks) in one register: a GCC/Clang vector
// extension. The GEMM and pool kernels keep their accumulators in these
// across a loop whose length is known only at run time; plain arrays there
// round-trip through memory on every step.
using Vec8 = float __attribute__((vector_size(32)));
constexpr int kVec = 8;

// Vec8 values go through references: passing one by value changes the
// calling convention with the target's vector width (-Wpsabi).
inline void load8(const float* src, Vec8& v) { std::memcpy(&v, src, sizeof v); }

// dst[i] = src[i] over a row, eight floats at a time.
inline void copy_row(const float* src, float* dst, int len) {
  int i = 0;
  for (; i + kVec <= len; i += kVec) {
    std::memcpy(dst + i, src + i, sizeof(Vec8));
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

// y[i * incy] = x[i * incx] * a + y[i * incy], one fused step per element.
// Each element keeps its own accumulation order, so vectorizing across i
// (unit strides) changes no result.
void axpy(int len, float a, const float* __restrict x, int incx,
          float* __restrict y, int incy) {
  if (incx == 1 && incy == 1) {
    for (int i = 0; i < len; ++i) y[i] = fmadd(x[i], a, y[i]);
  } else {
    for (int i = 0; i < len; ++i) {
      y[i * incy] = fmadd(x[i * incx], a, y[i * incy]);
    }
  }
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

// A tap with a non-empty window: the block of output positions whose input
// lies inside the image, given by the offsets of its first element in the
// output plane and in the input plane, and by its extent.
struct Tap {
  int k = 0;  // r * kw + c: the weight's index within its (oc, ic) block
  int in_off = 0;
  int out_off = 0;
  int nrows = 0;
  int len = 0;
};

// One conv call's geometry. Each tap's window is worked out once per call
// instead of bounds-checking every tap of every output element; a tap
// whose window is empty (all padding, like the off-centre taps on a 1x1
// plane) is left out of `taps`, just as the per-element checks skipped it.
struct ConvGeom {
  int h = 0, w = 0, wo = 0;
  int stride = 1, pad = 0;
  std::array<Tap, kMaxTaps> taps{};  // non-empty taps in (r, c) order
  int ntaps = 0;
  // Zero-padded input planes (padded_planes) are wp wide and hp * wp
  // long; pad_off[k] is tap k's offset from an output position's base
  // (oh * stride) * wp + ow * stride in them.
  int wp = 0;
  std::size_t padded_plane = 0;
  std::array<int, kMaxTaps> pad_off{};

  ConvGeom(int in_h, int in_w, int ho, int out_w, int kh, int kw,
           const Conv2dSpec& spec)
      : h(in_h), w(in_w), wo(out_w), stride(spec.stride), pad(spec.padding),
        wp(in_w + 2 * spec.padding),
        padded_plane(static_cast<std::size_t>(in_h + 2 * spec.padding) *
                     (in_w + 2 * spec.padding)) {
    FMS_CHECK_MSG(kh <= kMaxKernel && kw <= kMaxKernel,
                  "conv kernel " << kh << "x" << kw << " exceeds "
                                 << kMaxKernel);
    const int dil = spec.dilation;
    std::array<Span, kMaxKernel> col_spans{};
    for (int c = 0; c < kw; ++c) {
      col_spans[static_cast<std::size_t>(c)] =
          tap_span(w, wo, stride, c * dil - pad);
    }
    for (int r = 0; r < kh; ++r) {
      const Span rs = tap_span(h, ho, stride, r * dil - pad);
      for (int c = 0; c < kw; ++c) {
        const int k = r * kw + c;
        pad_off[static_cast<std::size_t>(k)] = r * dil * wp + c * dil;
        const Span cs = col_spans[static_cast<std::size_t>(c)];
        if (rs.lo == rs.hi || cs.lo == cs.hi) continue;
        taps[static_cast<std::size_t>(ntaps++)] =
            Tap{k, (rs.lo * stride - pad + r * dil) * w + cs.lo * stride -
                       pad + c * dil,
                rs.lo * wo + cs.lo, rs.hi - rs.lo, cs.hi - cs.lo};
      }
    }
  }

  // Applies tap t with weight a to its whole window, reading `from` and
  // accumulating into `to`. The output-side plane steps by 1 along a row
  // and the input-side plane by `stride`; the forward reads the input
  // plane, the input gradient writes it (into_input).
  void apply_tap(const Tap& t, float a, const float* from, float* to,
                 bool into_input) const {
    const float* src = from + (into_input ? t.out_off : t.in_off);
    float* dst = to + (into_input ? t.in_off : t.out_off);
    if (stride == 1 && w == wo && t.len == wo) {
      // Whole rows on both sides: the window is one contiguous run.
      axpy(t.nrows * t.len, a, src, 1, dst, 1);
      return;
    }
    const int in_row = stride * w;
    const int src_row = into_input ? wo : in_row;
    const int dst_row = into_input ? in_row : wo;
    const int src_inc = into_input ? 1 : stride;
    const int dst_inc = into_input ? stride : 1;
    for (int i = 0; i < t.nrows; ++i, src += src_row, dst += dst_row) {
      axpy(t.len, a, src, src_inc, dst, dst_inc);
    }
  }

  // Copies `planes` consecutive input planes into zero-padded planes, in
  // which every tap of every output position reads in bounds and padding
  // reads as 0. Unpadded input already has that layout and is returned.
  const float* padded_planes(const float* x, int planes,
                             std::vector<float>& buf) const {
    if (pad == 0) return x;
    buf.assign(static_cast<std::size_t>(planes) * padded_plane, 0.0F);
    for (int p = 0; p < planes; ++p) {
      for (int ih = 0; ih < h; ++ih) {
        const float* src = x + (static_cast<std::size_t>(p) * h + ih) * w;
        std::copy(src, src + w,
                  buf.data() + static_cast<std::size_t>(p) * padded_plane +
                      static_cast<std::size_t>(ih + pad) * wp + pad);
      }
    }
    return buf.data();
  }

  // Offset of output position p's tap base in a padded plane.
  int pad_base(int p) const {
    return (p / wo) * stride * wp + (p % wo) * stride;
  }
};

// acc[l] = fmadd(a, b[l], acc[l]) for every lane. GCC compiles the lane
// loop to one vfmadd231ps where fmadd is fused.
inline void fma8(float a, const Vec8& b, Vec8& acc) {
  Vec8 r{};
  for (int l = 0; l < kVec; ++l) r[l] = fmadd(a, b[l], acc[l]);
  acc = r;
}

// One R-row by V-vector register tile of gemm: c[r][j] for r < R and
// j < V * kVec, each a chain from +0 over p ascending.
template <int R, int V>
void gemm_tile(int k, const float* a, std::size_t a_row, std::size_t a_col,
               const float* b, std::size_t ldb, float* c, std::size_t ldc) {
  std::array<std::array<Vec8, V>, R> acc{};
  for (int p = 0; p < k; ++p, a += a_col, b += ldb) {
    std::array<Vec8, V> bv{};
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) load8(b + v * kVec, bv[v]);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const float ar = a[r * a_row];
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
void gemm_block(int m, int k, const float* a, std::size_t a_row,
                std::size_t a_col, const float* b, std::size_t ldb, float* c,
                std::size_t ldc) {
  int i = 0;
  for (; i + 4 <= m; i += 4) {
    gemm_tile<4, V>(k, a + i * a_row, a_row, a_col, b, ldb, c + i * ldc, ldc);
  }
  a += i * a_row;
  c += i * ldc;
  switch (m - i) {
    case 3: gemm_tile<3, V>(k, a, a_row, a_col, b, ldb, c, ldc); break;
    case 2: gemm_tile<2, V>(k, a, a_row, a_col, b, ldb, c, ldc); break;
    case 1: gemm_tile<1, V>(k, a, a_row, a_col, b, ldb, c, ldc); break;
    default: break;
  }
}

// C[m x n] = A[m x k] * B[k x n]. A is read at a[i * a_row + p * a_col],
// so a transposed A costs nothing; B and C are row-major with leading
// dimensions ldb and ldc. n must be a multiple of kVec: callers zero-pad
// B's columns and copy out only C's real ones. Every C[i][j] is one chain
// that starts at +0 and adds A[i][p] * B[p][j] for p ascending, one fmadd
// per term, with no split of k, so its value does not depend on the tile
// it lands in.
void gemm(int m, int n, int k, const float* a, std::size_t a_row,
          std::size_t a_col, const float* b, std::size_t ldb, float* c,
          std::size_t ldc) {
  int j = 0;
  for (; j + 2 * kVec <= n; j += 2 * kVec) {
    gemm_block<2>(m, k, a, a_row, a_col, b + j, ldb, c + j, ldc);
  }
  if (j < n) gemm_block<1>(m, k, a, a_row, a_col, b + j, ldb, c + j, ldc);
}

std::size_t round_to_vec(int len) {
  return static_cast<std::size_t>((len + kVec - 1) / kVec * kVec);
}

// The output positions (n, oh, ow) of a 1x1 conv without padding, in
// order, as GEMM columns: position (oh, ow) reads input pixel
// (oh * stride, ow * stride) of an h x w plane. Packed rows are `ld`
// floats long, the position count rounded up to a whole vector.
struct Pointwise {
  int n = 0, h = 0, w = 0, stride = 1;
  int ho = 0, wo = 0;
  int cols = 0;        // n * ho * wo
  std::size_t ld = 0;

  Pointwise(int n_, int h_, int w_, int stride_)
      : n(n_), h(h_), w(w_), stride(stride_), ho((h_ - 1) / stride_ + 1),
        wo((w_ - 1) / stride_ + 1), cols(n_ * ho * wo),
        ld(round_to_vec(cols)) {}

  // The same columns over the output planes, where position p reads p.
  Pointwise outputs() const { return {n, ho, wo, 1}; }

  // Calls f(position, pixel) for every position of one plane, in order.
  template <typename F>
  void each_pixel(F&& f) const {
    if (stride == 1) {
      for (int o = 0; o < ho * wo; ++o) f(o, o);
      return;
    }
    int o = 0;
    for (int oh = 0; oh < ho; ++oh) {
      for (int ow = 0; ow < wo; ++ow) f(o++, (oh * w + ow) * stride);
    }
  }

  // Plane (image in, channel c) of an NCHW tensor with `channels` planes
  // per image.
  std::size_t plane(int in, int c, int channels) const {
    return (static_cast<std::size_t>(in) * channels + c) * h * w;
  }

  // dst[c * ld + j] = channel c's pixel of column j in the NCHW tensor
  // src, for every channel; the padding columns are zero.
  void pack_rows(const float* src, int channels, float* dst) const {
    const int per_image = ho * wo;
    for (int c = 0; c < channels; ++c) {
      float* row = dst + c * ld;
      for (int in = 0; in < n; ++in, row += per_image) {
        const float* p = src + plane(in, c, channels);
        each_pixel([&](int o, int i) { row[o] = p[i]; });
      }
      std::fill(row, dst + (c + 1) * ld, 0.0F);
    }
  }

  // The inverse of pack_rows: column j of each row goes back to its pixel.
  // Pixels no column reads (stride > 1) are left alone.
  void unpack_rows(const float* src, int channels, float* dst) const {
    const int per_image = ho * wo;
    for (int c = 0; c < channels; ++c) {
      const float* row = src + c * ld;
      for (int in = 0; in < n; ++in, row += per_image) {
        float* p = dst + plane(in, c, channels);
        each_pixel([&](int o, int i) { p[i] = row[o]; });
      }
    }
  }

  // pack_rows transposed: dst[j * ldt + c], with rows ldt >= channels
  // long whose padding is zero.
  void pack_cols(const float* src, int channels, float* dst,
                 std::size_t ldt) const {
    const int per_image = ho * wo;
    for (int j = 0; j < cols; ++j) {
      std::fill(dst + j * ldt + channels, dst + (j + 1) * ldt, 0.0F);
    }
    for (int in = 0; in < n; ++in) {
      float* col = dst + static_cast<std::size_t>(in) * per_image * ldt;
      for (int c = 0; c < channels; ++c) {
        const float* p = src + plane(in, c, channels);
        each_pixel([&](int o, int i) { col[o * ldt + c] = p[i]; });
      }
    }
  }
};

// A 1x1 conv without padding or groups (the DARTS pointwise convs and the
// factorized reduce) is one GEMM per output.
bool is_pointwise(int kh, int kw, const Conv2dSpec& spec) {
  return kh == 1 && kw == 1 && spec.padding == 0 && spec.groups == 1;
}

// Packing buffers of the pointwise convs.
thread_local std::vector<float> pack_in, pack_out, pack_grad;

// y = W * X, with x packed as [cin, cols].
Tensor pointwise_forward(const Tensor& x, const Tensor& w, int stride) {
  const int n = x.dim(0), cin = x.dim(1), cout = w.dim(0);
  const Pointwise pw(n, x.dim(2), x.dim(3), stride);
  float* xs = grown(pack_in, cin * pw.ld);
  float* ys = grown(pack_out, cout * pw.ld);
  pw.pack_rows(x.data(), cin, xs);
  gemm(cout, static_cast<int>(pw.ld), cin, w.data(), cin, 1, xs, pw.ld, ys,
       pw.ld);
  Tensor y({n, cout, pw.ho, pw.wo});
  pw.outputs().unpack_rows(ys, cout, y.data());
  return y;
}

// grad_x = W^T * GY over oc ascending, scattered back to the pixels the
// forward read (the rest stay 0); grad_w = GY * X^T over the positions
// in order, with x packed as [cols, cin].
Conv2dGrads pointwise_backward(const Tensor& x, const Tensor& w,
                               const Tensor& grad_y, int stride) {
  const int n = x.dim(0), cin = x.dim(1), cout = w.dim(0);
  const Pointwise pw(n, x.dim(2), x.dim(3), stride);
  FMS_CHECK(grad_y.dim(2) == pw.ho && grad_y.dim(3) == pw.wo);
  Conv2dGrads g{Tensor({n, cin, pw.h, pw.w}), Tensor({cout, cin, 1, 1})};

  float* gys = grown(pack_grad, cout * pw.ld);
  pw.outputs().pack_rows(grad_y.data(), cout, gys);
  float* gxs = grown(pack_out, cin * pw.ld);
  gemm(cin, static_cast<int>(pw.ld), cout, w.data(), 1, cin, gys, pw.ld, gxs,
       pw.ld);
  pw.unpack_rows(gxs, cin, g.grad_x.data());

  const std::size_t ldt = round_to_vec(cin);
  float* xt = grown(pack_in, pw.cols * ldt);
  pw.pack_cols(x.data(), cin, xt, ldt);
  float* gws = grown(pack_out, cout * ldt);
  gemm(cout, static_cast<int>(ldt), pw.cols, gys, pw.ld, 1, xt, ldt, gws, ldt);
  for (int oc = 0; oc < cout; ++oc) {
    copy_row(gws + oc * ldt, g.grad_w.data() + oc * cin, cin);
  }
  return g;
}

// A depthwise conv: one input channel per group and one output channel per
// input channel, with a kernel wider than one pixel (the first conv of
// every DARTS separable and dilated conv). It runs with the channels in
// the vector lanes.
bool is_depthwise(int cin, int cout, int kh, int kw, const Conv2dSpec& spec) {
  return spec.groups == cin && cout == cin && kh * kw > 1;
}

// acc[l] = fmadd(a[l], b[l], acc[l]) for every lane.
inline void fma8(const Vec8& a, const Vec8& b, Vec8& acc) {
  Vec8 r{};
  for (int l = 0; l < kVec; ++l) r[l] = fmadd(a[l], b[l], acc[l]);
  acc = r;
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

// The inverse of to_cells over consecutive cells (cells[i] == i * cp);
// the padding lanes are dropped.
void from_lanes(const float* src, int c, int len, int cp, float* dst) {
  const auto n = static_cast<std::size_t>(len);
  const auto lanes = static_cast<std::size_t>(cp);
  for (int b = 0; b < cp; b += kVec) {
    const auto rows = static_cast<std::size_t>(std::min(kVec, c - b));
    float* block = dst + static_cast<std::size_t>(b) * n;
    std::size_t i = 0;
    for (; i + kVec <= n; i += kVec) {
      std::array<Vec8, kVec> r;
      for (std::size_t j = 0; j < kVec; ++j) {
        load8(src + (i + j) * lanes + b, r[j]);
      }
      transpose8(r);
      for (std::size_t l = 0; l < rows; ++l) {
        std::memcpy(block + l * n + i, &r[l], sizeof(Vec8));
      }
    }
    for (; i < n; ++i) {
      const float* cell = src + i * lanes + b;
      for (std::size_t l = 0; l < rows; ++l) block[l * n + i] = cell[l];
    }
  }
}

// Output positions per register tile of the depthwise kernels.
constexpr int kLaneTile = 8;

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

// The taps one depthwise correlation runs, in chain order: tap t reads the
// grid cell off[t] floats past an output position's base cell and weighs
// it by lane vector k[t] of the packed weights.
struct LaneTaps {
  int n = 0;
  std::array<std::size_t, kMaxTaps> off{};
  std::array<int, kMaxTaps> k{};
};

// A grid of output positions (i, j), i < ni and j < nj: position (i, j)
// is based at grid float base0 + i * base_i + j * base_j and writes its
// cp lanes at out0 + i * out_i + j * out_j.
struct LanePositions {
  int ni = 0, nj = 0;
  std::size_t base0 = 0, base_i = 0, base_j = 0;
  std::size_t out0 = 0, out_i = 0, out_j = 0;
};

// T output positions of one 8-lane block, based at grid + base[i] and
// written at out + dst[i]: each lane is a chain from +0 over the taps in
// order.
template <int T>
void lane_tile(const float* grid, const std::size_t* base,
               const LaneTaps& taps, const float* wl, int cp,
               const std::size_t* dst, float* out) {
  std::array<Vec8, T> acc{};
  for (int t = 0; t < taps.n; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    Vec8 wv;
    load8(wl + static_cast<std::size_t>(taps.k[ti]) * cp, wv);
    const float* g = grid + taps.off[ti];
#pragma GCC unroll 8
    for (int i = 0; i < T; ++i) {
      Vec8 xv;
      load8(g + base[i], xv);
      fma8(xv, wv, acc[i]);
    }
  }
  for (int i = 0; i < T; ++i) {
    std::memcpy(out + dst[i], &acc[i], sizeof(Vec8));
  }
}

// Correlates the taps with the grid at every position of `pos`; wl holds
// the weights as [kh * kw][cp].
void lane_correlate(const float* grid, const LanePositions& pos,
                    const LaneTaps& taps, const float* wl, int cp,
                    float* out) {
  std::array<std::size_t, kLaneTile> base{}, dst{};
  int i = 0, j = 0;
  for (int left = pos.ni * pos.nj; left > 0;) {
    const int np = std::min(kLaneTile, left);
    for (int p = 0; p < np; ++p) {
      const auto ui = static_cast<std::size_t>(i);
      const auto uj = static_cast<std::size_t>(j);
      base[static_cast<std::size_t>(p)] =
          pos.base0 + ui * pos.base_i + uj * pos.base_j;
      dst[static_cast<std::size_t>(p)] =
          pos.out0 + ui * pos.out_i + uj * pos.out_j;
      if (++j == pos.nj) {
        j = 0;
        ++i;
      }
    }
    left -= np;
    for (int b = 0; b < cp; b += kVec) {
      with_count<kLaneTile>(np, [&](auto t) {
        lane_tile<decltype(t)::value>(grid + b, base.data(), taps, wl + b, cp,
                                      dst.data(), out + b);
      });
    }
  }
}

// A depthwise conv's geometry. Only the taps ConvGeom keeps run, so each
// grid spans just the rows r_lo .. r_hi and columns c_lo .. c_hi of the
// kernel that some kept tap reads.
//   y       a correlation over the input placed on a zero fh x fw grid
//           (its padding): output (oh, ow) is a chain from +0 over the
//           taps in (r, c) order.
//   grad_x  a correlation at stride 1 over grad_y placed on a zero bh x bw
//           grid upsampled by the stride, with the taps flipped: input
//           (ih, iw) is a chain from +0 over the taps in (r, c)
//           descending order, which is (oh, ow) ascending. Inputs run by
//           phase (ih % stride, iw % stride), each with only the taps
//           that land on grad_y cells.
//   grad_w  each tap's lane vector is a chain over (n, oh, ow) ascending
//           of grad_y times the input cell it read; the outputs that read
//           only padding add nothing and are skipped.
// A term the oracle skips reads 0 here: fmadd(0, v, acc) == acc for
// finite v, and an accumulator that starts at +0 never becomes -0.
struct DepthwiseGeom {
  int c = 0, cp = 0;  // channels, and lanes per cell (c rounded up to kVec)
  int h = 0, w = 0, ho = 0, wo = 0, stride = 1, taps = 0;
  int fh = 0, fw = 0, f_top = 0, f_left = 0;  // the forward grid
  int bh = 0, bw = 0, b_top = 0, b_left = 0;  // the grad_x grid
  LaneTaps fwd, bwd;
  // The grad_x phase (a, b) whose inputs tap t of bwd lands on grad_y
  // cells for, as a * stride + b.
  std::array<int, kMaxTaps> bwd_phase{};

  DepthwiseGeom(int c_, int h_, int w_, int ho_, int wo_, int kh, int kw,
                const Conv2dSpec& spec)
      : c(c_), cp(static_cast<int>(round_to_vec(c_))), h(h_), w(w_), ho(ho_),
        wo(wo_), stride(spec.stride), taps(kh * kw) {
    const ConvGeom geom(h, w, ho, wo, kh, kw, spec);
    const int d = spec.dilation, p = spec.padding;
    // With no tap kept every output is +0, over any grid.
    int r_lo = geom.ntaps > 0 ? kh : 0, r_hi = 0;
    int c_lo = geom.ntaps > 0 ? kw : 0, c_hi = 0;
    for (int t = 0; t < geom.ntaps; ++t) {
      const int k = geom.taps[static_cast<std::size_t>(t)].k;
      r_lo = std::min(r_lo, k / kw);
      r_hi = std::max(r_hi, k / kw);
      c_lo = std::min(c_lo, k % kw);
      c_hi = std::max(c_hi, k % kw);
    }
    fh = (ho - 1) * stride + (r_hi - r_lo) * d + 1;
    fw = (wo - 1) * stride + (c_hi - c_lo) * d + 1;
    f_top = p - r_lo * d;
    f_left = p - c_lo * d;
    bh = h + (r_hi - r_lo) * d;
    bw = w + (c_hi - c_lo) * d;
    b_top = r_hi * d - p;
    b_left = c_hi * d - p;
    fwd.n = bwd.n = geom.ntaps;
    for (int t = 0; t < geom.ntaps; ++t) {
      const int k = geom.taps[static_cast<std::size_t>(t)].k;
      const int r = k / kw, cc = k % kw;
      const auto i = static_cast<std::size_t>(t);
      fwd.k[i] = k;
      fwd.off[i] = cell((r - r_lo) * d, (cc - c_lo) * d, fw);
      const auto j = static_cast<std::size_t>(geom.ntaps - 1 - t);
      bwd.k[j] = k;
      bwd.off[j] = cell((r_hi - r) * d, (c_hi - cc) * d, bw);
      // Grid row ih + (r_hi - r) * d holds grad_y where it is b_top
      // modulo the stride; likewise for columns.
      bwd_phase[j] = mod(b_top - (r_hi - r) * d) * stride +
                     mod(b_left - (c_hi - cc) * d);
    }
  }

  // Offset of cell (r, c) of a grid gw cells wide.
  std::size_t cell(int r, int c, int gw) const {
    return (static_cast<std::size_t>(r) * gw + c) * cp;
  }
  std::size_t in_cells() const { return static_cast<std::size_t>(h) * w; }
  std::size_t out_cells() const { return static_cast<std::size_t>(ho) * wo; }
  // Floats of a grid with one spare cell past its end, which takes the
  // pixels that land outside it.
  std::size_t grid_floats(int gh, int gw) const {
    return (static_cast<std::size_t>(gh) * gw + 1) * cp;
  }
  // Whether the input fills the forward grid exactly (no padding read).
  bool input_is_grid() const {
    return fh == h && fw == w && f_top == 0 && f_left == 0;
  }

  // cells[i] = where pixel i of an hp x wp plane goes: cell (i / wp *
  // step + top, i % wp * step + left) of a gh x gw grid, or its spare
  // cell.
  void place(int hp, int wp, int step, int top, int left, int gh, int gw,
             std::size_t* cells) const {
    const std::size_t spare = static_cast<std::size_t>(gh) * gw * cp;
    for (int i = 0; i < hp; ++i) {
      const int r = i * step + top;
      for (int j = 0; j < wp; ++j, ++cells) {
        const int cc = j * step + left;
        *cells = r >= 0 && r < gh && cc >= 0 && cc < gw
                     ? (static_cast<std::size_t>(r) * gw + cc) * cp
                     : spare;
      }
    }
  }

  // The forward's output positions over its grid.
  LanePositions forward_positions() const {
    const auto s = static_cast<std::size_t>(stride);
    const auto ucp = static_cast<std::size_t>(cp);
    return {ho, wo, 0, s * fw * ucp, s * ucp, 0, wo * ucp, ucp};
  }

  // The inputs (ih, iw) of phase (a, b), ih % stride == a and iw % stride
  // == b, as grad_x positions over the grad_x grid.
  LanePositions phase_positions(int a, int b) const {
    const auto s = static_cast<std::size_t>(stride);
    const auto ucp = static_cast<std::size_t>(cp);
    return {(h - a + stride - 1) / stride, (w - b + stride - 1) / stride,
            cell(a, b, bw), s * bw * ucp, s * ucp,
            (static_cast<std::size_t>(a) * w + b) * ucp, s * w * ucp,
            s * ucp};
  }

  // phases[a * stride + b] = the grad_x taps, in order, that land on
  // grad_y cells for the inputs of phase (a, b); the others read only
  // zeros there.
  void phase_taps(std::vector<LaneTaps>& phases) const {
    phases.assign(static_cast<std::size_t>(stride) * stride, LaneTaps{});
    for (int t = 0; t < bwd.n; ++t) {
      const auto i = static_cast<std::size_t>(t);
      LaneTaps& run = phases[static_cast<std::size_t>(bwd_phase[i])];
      const auto n = static_cast<std::size_t>(run.n++);
      run.off[n] = bwd.off[i];
      run.k[n] = bwd.k[i];
    }
  }
  int mod(int v) const { return (v % stride + stride) % stride; }
};

// Taps t0 .. t0 + G - 1 of grad_w for one 8-lane block: each tap's lane
// vector in gwl advances by grad_y times its forward-grid cell, over the
// output rows `rows` and columns `cols` in order.
template <int G>
void lane_wgrad(const DepthwiseGeom& dg, const float* xgrid,
                const float* gygrid, Span rows, Span cols, int t0,
                float* gwl) {
  const std::size_t cp = static_cast<std::size_t>(dg.cp);
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
    const float* x = xgrid + dg.cell(oh * dg.stride, ow0 * dg.stride, dg.fw);
    const float* gy = gygrid + dg.cell(oh * dg.stride + dg.b_top,
                                       ow0 * dg.stride + dg.b_left, dg.bw);
    for (int ow = ow0; ow < cols.hi; ++ow, x += step, gy += step) {
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
// positions in passes of at most kLaneTaps taps. An output position whose
// grad_y is not on the grad_x grid reads only padding.
void lane_wgrad_image(const DepthwiseGeom& dg, const float* xgrid,
                      const float* gygrid, float* gwl) {
  const Span rows = tap_span(dg.bh, dg.ho, dg.stride, dg.b_top);
  const Span cols = tap_span(dg.bw, dg.wo, dg.stride, dg.b_left);
  const int passes = (dg.fwd.n + kLaneTaps - 1) / kLaneTaps;
  for (int b = 0; b < dg.cp; b += kVec) {
    for (int t0 = 0, left = dg.fwd.n, pass = passes; pass > 0; --pass) {
      const int g = (left + pass - 1) / pass;
      with_count<kLaneTaps>(g, [&](auto taps) {
        lane_wgrad<decltype(taps)::value>(dg, xgrid + b, gygrid + b, rows,
                                          cols, t0, gwl + b);
      });
      t0 += g;
      left -= g;
    }
  }
}

// Per-call buffers of the depthwise convs: the two grids, the output
// cells, the packed weights and weight gradient, and the cell tables.
thread_local std::vector<float> lane_xgrid, lane_gygrid, lane_out, lane_w,
    lane_gw;
thread_local std::vector<std::size_t> lane_xcells, lane_gycells;
thread_local std::vector<LaneTaps> lane_phases;

// The kept taps' weights w[ch][0][k] as wl[k * cp + ch]; the other lanes
// are never read.
const float* pack_lane_weights(const DepthwiseGeom& dg, const Tensor& w) {
  float* wl = grown(lane_w, static_cast<std::size_t>(dg.taps) * dg.cp);
  for (int t = 0; t < dg.fwd.n; ++t) {
    const int k = dg.fwd.k[static_cast<std::size_t>(t)];
    float* row = wl + static_cast<std::size_t>(k) * dg.cp;
    const float* wk = w.data() + k;
    for (int ch = 0; ch < dg.c; ++ch, wk += dg.taps) row[ch] = *wk;
    std::fill(row + dg.c, row + dg.cp, 0.0F);
  }
  return wl;
}

// The forward grid's cell of every input pixel.
const std::size_t* input_cells(const DepthwiseGeom& dg) {
  std::size_t* cells = grown(lane_xcells, dg.in_cells());
  dg.place(dg.h, dg.w, 1, dg.f_top, dg.f_left, dg.fh, dg.fw, cells);
  return cells;
}

// Image `in` of an NCHW tensor of `c` planes of `len` pixels placed on a
// zero grid of `floats` floats.
const float* fill_grid(const float* t, int in, int c, std::size_t len,
                       int cp, const std::size_t* cells, std::size_t floats,
                       bool covered, std::vector<float>& buf) {
  float* grid = grown(buf, floats);
  if (!covered) std::fill(grid, grid + floats, 0.0F);
  to_cells(t + static_cast<std::size_t>(in) * c * len, c,
           static_cast<int>(len), cp, cells, grid);
  return grid;
}

Tensor depthwise_forward(const Tensor& x, const Tensor& w,
                         const DepthwiseGeom& dg) {
  const int n = x.dim(0);
  Tensor y({n, dg.c, dg.ho, dg.wo});
  const float* wl = pack_lane_weights(dg, w);
  const std::size_t* xcells = input_cells(dg);
  float* yl = grown(lane_out, dg.out_cells() * dg.cp);
  const LanePositions pos = dg.forward_positions();
  for (int in = 0; in < n; ++in) {
    const float* grid = fill_grid(x.data(), in, dg.c, dg.in_cells(), dg.cp,
                                  xcells, dg.grid_floats(dg.fh, dg.fw),
                                  dg.input_is_grid(), lane_xgrid);
    lane_correlate(grid, pos, dg.fwd, wl, dg.cp, yl);
    from_lanes(yl, dg.c, static_cast<int>(dg.out_cells()), dg.cp,
               y.data() + static_cast<std::size_t>(in) * dg.c * dg.out_cells());
  }
  return y;
}

Conv2dGrads depthwise_backward(const Tensor& x, const Tensor& w,
                               const Tensor& grad_y, const DepthwiseGeom& dg) {
  const int n = x.dim(0);
  Conv2dGrads g{Tensor({n, dg.c, dg.h, dg.w}), Tensor(w.shape())};
  const float* wl = pack_lane_weights(dg, w);
  const std::size_t gw_floats = static_cast<std::size_t>(dg.taps) * dg.cp;
  float* gwl = grown(lane_gw, gw_floats);
  std::fill(gwl, gwl + gw_floats, 0.0F);
  const std::size_t* xcells = input_cells(dg);
  std::size_t* gycells = grown(lane_gycells, dg.out_cells());
  dg.place(dg.ho, dg.wo, dg.stride, dg.b_top, dg.b_left, dg.bh, dg.bw,
           gycells);
  dg.phase_taps(lane_phases);
  float* gxl = grown(lane_out, dg.in_cells() * dg.cp);
  for (int in = 0; in < n; ++in) {
    const float* gygrid = fill_grid(
        grad_y.data(), in, dg.c, dg.out_cells(), dg.cp, gycells,
        dg.grid_floats(dg.bh, dg.bw), false, lane_gygrid);
    for (int a = 0; a < std::min(dg.stride, dg.h); ++a) {
      for (int b = 0; b < std::min(dg.stride, dg.w); ++b) {
        lane_correlate(gygrid, dg.phase_positions(a, b),
                       lane_phases[static_cast<std::size_t>(a * dg.stride + b)],
                       wl, dg.cp, gxl);
      }
    }
    from_lanes(gxl, dg.c, static_cast<int>(dg.in_cells()), dg.cp,
               g.grad_x.data() +
                   static_cast<std::size_t>(in) * dg.c * dg.in_cells());
    const float* xgrid = fill_grid(x.data(), in, dg.c, dg.in_cells(), dg.cp,
                                   xcells, dg.grid_floats(dg.fh, dg.fw),
                                   dg.input_is_grid(), lane_xgrid);
    lane_wgrad_image(dg, xgrid, gygrid, gwl);
  }
  from_lanes(gwl, dg.c, dg.taps, dg.cp, g.grad_w.data());
  return g;
}

}  // namespace

// The kernels vectorize across output elements while every element keeps
// the reduction order of the direct loops they replaced (kept as the test
// oracle in tests/conv_reference.h), one fused multiply-add (fmadd) per
// term, so their results are bit-identical to those loops'. Three paths:
//   1x1, no padding or groups: one gemm per output over packed columns
//     (pointwise_forward, pointwise_backward): y over ic ascending, grad_x
//     over oc ascending, grad_w over (n, oh, ow) ascending.
//   depthwise (groups == cin == cout, kernel > 1): channels in the vector
//     lanes. Each image's planes are packed as [rows][cols][cp], cp the
//     channels rounded up to 8 with zero lanes, on a zero grid that holds
//     the padding; weights pack as [kh * kw][cp] (DepthwiseGeom):
//       y       per output, a chain from +0 over the taps in (r, c) order,
//               in register tiles of 8 outputs;
//       grad_x  the same correlation over grad_y placed on a zero grid
//               upsampled by the stride, taps flipped: (r, c) descending,
//               which is (oh, ow) ascending for each input element;
//       grad_w  the kh * kw chains of an 8-channel block advanced
//               together per output position, over (n, oh, ow)
//               ascending, carried across images.
//   the rest (dense, grouped with cin / groups > 1, channel multiplier >
//     1): per-tap shifted axpys.
//       y       taps in (ic, r, c) order;
//       grad_x  oc-major, then taps in (r, c) descending order;
//       grad_w  over (n, oh, ow) ascending: rank-1 updates of each weight
//               row by im2col rows, vectorized along the row.
// A tap whose window is all padding at every output position is dropped
// (ConvGeom), as the oracle's bounds checks skipped it. Other padding is
// skipped (the axpys) or read as 0 (grids, im2col), where fma(v, 0, acc)
// == acc for finite v. The backward does not skip grad_y == 0: with
// finite operands that term adds exactly nothing, and with a NaN/Inf
// operand it now reaches the gradient instead of being dropped.
Tensor conv2d_forward(const Tensor& x, const Tensor& w,
                      const Conv2dSpec& spec) {
  FMS_CHECK(x.ndim() == 4 && w.ndim() == 4);
  const int n = x.dim(0), cin = x.dim(1), h = x.dim(2), ww = x.dim(3);
  const int cout = w.dim(0), cin_g = w.dim(1), kh = w.dim(2), kw = w.dim(3);
  const int g = spec.groups;
  FMS_CHECK_MSG(cin % g == 0 && cout % g == 0 && cin / g == cin_g,
                "channel/group mismatch: cin=" << cin << " cout=" << cout
                                               << " groups=" << g);
  const int ho = conv_out_size(h, kh, spec.stride, spec.padding, spec.dilation);
  const int wo = conv_out_size(ww, kw, spec.stride, spec.padding, spec.dilation);
  if (is_pointwise(kh, kw, spec)) return pointwise_forward(x, w, spec.stride);
  if (is_depthwise(cin, cout, kh, kw, spec)) {
    return depthwise_forward(x, w,
                             DepthwiseGeom(cin, h, ww, ho, wo, kh, kw, spec));
  }
  const int cout_g = cout / g;
  const ConvGeom geom(h, ww, ho, wo, kh, kw, spec);
  const std::size_t x_plane = static_cast<std::size_t>(h) * ww;
  const std::size_t y_plane = static_cast<std::size_t>(ho) * wo;
  const std::size_t taps = static_cast<std::size_t>(kh) * kw;

  Tensor y({n, cout, ho, wo});
  float* yp = y.data();
  for (int in = 0; in < n; ++in) {
    for (int oc = 0; oc < cout; ++oc, yp += y_plane) {
      const float* wp = w.data() + static_cast<std::size_t>(oc) * cin_g * taps;
      const float* xp =
          x.data() +
          (static_cast<std::size_t>(in) * cin + oc / cout_g * cin_g) * x_plane;
      for (int ic = 0; ic < cin_g; ++ic, xp += x_plane, wp += taps) {
        for (int t = 0; t < geom.ntaps; ++t) {
          const Tap& tap = geom.taps[static_cast<std::size_t>(t)];
          geom.apply_tap(tap, wp[tap.k], xp, yp, /*into_input=*/false);
        }
      }
    }
  }
  return y;
}

Conv2dGrads conv2d_backward(const Tensor& x, const Tensor& w,
                            const Tensor& grad_y, const Conv2dSpec& spec) {
  const int n = x.dim(0), cin = x.dim(1), h = x.dim(2), ww = x.dim(3);
  const int cout = w.dim(0), cin_g = w.dim(1), kh = w.dim(2), kw = w.dim(3);
  const int g = spec.groups;
  const int ho = grad_y.dim(2), wo = grad_y.dim(3);
  FMS_CHECK(grad_y.dim(0) == n && grad_y.dim(1) == cout);
  if (is_pointwise(kh, kw, spec)) {
    return pointwise_backward(x, w, grad_y, spec.stride);
  }
  if (is_depthwise(cin, cout, kh, kw, spec)) {
    return depthwise_backward(x, w, grad_y,
                              DepthwiseGeom(cin, h, ww, ho, wo, kh, kw, spec));
  }
  const int cout_g = cout / g;
  const ConvGeom geom(h, ww, ho, wo, kh, kw, spec);
  const std::size_t x_plane = static_cast<std::size_t>(h) * ww;
  const std::size_t y_plane = static_cast<std::size_t>(ho) * wo;
  const int taps = kh * kw;
  const int k = cin_g * taps;

  Conv2dGrads out{Tensor({n, cin, h, ww}), Tensor({cout, cin_g, kh, kw})};

  // grad_x: per input plane, the group's output channels in order.
  float* gxp = out.grad_x.data();
  for (int in = 0; in < n; ++in) {
    for (int ic_abs = 0; ic_abs < cin; ++ic_abs, gxp += x_plane) {
      const int gi = ic_abs / cin_g, ic = ic_abs % cin_g;
      for (int oc = gi * cout_g; oc < (gi + 1) * cout_g; ++oc) {
        const float* gyp =
            grad_y.data() + (static_cast<std::size_t>(in) * cout + oc) * y_plane;
        const float* wp =
            w.data() + (static_cast<std::size_t>(oc) * cin_g + ic) * taps;
        for (int t = geom.ntaps - 1; t >= 0; --t) {
          const Tap& tap = geom.taps[static_cast<std::size_t>(t)];
          geom.apply_tap(tap, wp[tap.k], gyp, gxp, /*into_input=*/true);
        }
      }
    }
  }

  // grad_w: im2col rows of zero-padded copies of each image's group
  // planes, in chunks of at most kColFloats, each folded into every weight
  // row of its group in output-position order.
  const int positions = ho * wo;
  thread_local std::vector<float> padded;
  const int chunk = std::clamp(kColFloats / k, 1, positions);
  thread_local std::vector<float> col_buf;
  float* const col = grown(col_buf, static_cast<std::size_t>(chunk) * k);
  for (int in = 0; in < n; ++in) {
    for (int gi = 0; gi < g; ++gi) {
      const float* xg = geom.padded_planes(
          x.data() + (static_cast<std::size_t>(in) * cin + gi * cin_g) * x_plane,
          cin_g, padded);
      for (int p0 = 0; p0 < positions; p0 += chunk) {
        const int p1 = std::min(positions, p0 + chunk);
        float* row = col;
        for (int p = p0; p < p1; ++p) {
          const float* base = xg + geom.pad_base(p);
          for (int ic = 0; ic < cin_g; ++ic, base += geom.padded_plane) {
            for (int t = 0; t < taps; ++t) {
              *row++ = base[geom.pad_off[static_cast<std::size_t>(t)]];
            }
          }
        }
        for (int oc = gi * cout_g; oc < (gi + 1) * cout_g; ++oc) {
          float* gwp = out.grad_w.data() + static_cast<std::size_t>(oc) * k;
          const float* gyp =
              grad_y.data() +
              (static_cast<std::size_t>(in) * cout + oc) * y_plane;
          const float* crow = col;
          for (int p = p0; p < p1; ++p, crow += k) {
            axpy(k, gyp[p], crow, 1, gwp, 1);
          }
        }
      }
    }
  }
  return out;
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
//   pools    every tap in (r, c) order as one unit-stride run over the
//            output slots of a block of padded planes (PoolGrid); padding
//            reads -inf (max) or 0 (avg), which never changes a result.
//            The avg-pool backward gathers taps in (r, c) descending
//            order, which is (oh, ow) ascending for each input element;
//            the max-pool backward scatters in output order.
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

using Mask8 = std::int32_t __attribute__((vector_size(32)));
// Vectors per register block: enough independent chains to cover the
// latency of an add or a compare-and-blend.
constexpr std::size_t kChains = 4;
constexpr std::size_t kPoolLanes = kChains * kVec;  // slots per block

// dst[i] = src[i] * scale over a row, eight floats at a time.
inline void scale_row(const float* src, float scale, float* dst, int len) {
  int i = 0;
  for (; i + kVec <= len; i += kVec) {
    Vec8 v;
    load8(src + i, v);
    v *= scale;
    std::memcpy(dst + i, &v, sizeof v);
  }
  for (; i < len; ++i) dst[i] = src[i] * scale;
}

// dst[i] = src[i] for tap numbers (< kMaxTaps) over a row.
inline void narrow_row(const int* src, std::uint8_t* dst, int len) {
  using Bytes8 = std::uint8_t __attribute__((vector_size(8)));
  int i = 0;
  for (; i + kVec <= len; i += kVec) {
    Mask8 v;
    std::memcpy(&v, src + i, sizeof v);
    const Bytes8 b = __builtin_convertvector(v, Bytes8);
    std::memcpy(dst + i, &b, sizeof b);
  }
  for (; i < len; ++i) dst[i] = static_cast<std::uint8_t>(src[i]);
}

// A stride-2 pool's row split: even elements to `even`, odd ones to `odd`.
inline void split_row(const float* src, float* even, float* odd, int len) {
  using Vec4 = float __attribute__((vector_size(16)));
  int i = 0;
  for (; i + kVec <= len; i += kVec, even += kVec / 2, odd += kVec / 2) {
    Vec8 v;
    load8(src + i, v);
    const Vec4 e = __builtin_shufflevector(v, v, 0, 2, 4, 6);
    const Vec4 o = __builtin_shufflevector(v, v, 1, 3, 5, 7);
    std::memcpy(even, &e, sizeof e);
    std::memcpy(odd, &o, sizeof o);
  }
  for (; i < len; ++i) *(i % 2 == 0 ? even++ : odd++) = src[i];
}

// The inverse of split_row.
inline void join_row(const float* even, const float* odd, float* dst,
                     int len) {
  using Vec4 = float __attribute__((vector_size(16)));
  int i = 0;
  for (; i + kVec <= len; i += kVec, even += kVec / 2, odd += kVec / 2) {
    Vec4 e, o;
    std::memcpy(&e, even, sizeof e);
    std::memcpy(&o, odd, sizeof o);
    const Vec8 v = __builtin_shufflevector(e, o, 0, 4, 1, 5, 2, 6, 3, 7);
    std::memcpy(dst + i, &v, sizeof v);
  }
  for (; i < len; ++i) dst[i] = i % 2 == 0 ? *even++ : *odd++;
}

// Pooling geometry over padded planes split into stride x stride phases:
// phase (a, b) holds the padded rows a, a + stride, ... and columns b,
// b + stride, ..., in rows wq long. Output (oh, ow) of a plane sits at
// slot oh * wq + ow of a grid of the same layout, and its tap (r, c)
// reads phase (r % stride, c % stride) at that slot plus
// (r / stride) * wq + c / stride: every tap is a unit-stride run over
// the slots. The planes of a block follow each other in every phase, so
// one run covers the block, vectorized across slots. Slots with ow >= wo
// or oh >= ho are junk: dropped from an output, zero in a gradient.
struct PoolGrid {
  Shape4 in, out;
  Pool2dSpec p;
  int wq = 0;                   // phase row width
  std::size_t plane_slots = 0;  // slots (phase cells) per plane
  std::size_t block = 1;        // planes per block
  std::size_t phase_len = 0;    // one phase of a block, plus the taps' reach
  int ntaps = 0;
  // Per tap r * kernel + c: its phase and its step back within the phase.
  std::array<int, kMaxTaps> tap_phase{};
  std::array<std::size_t, kMaxTaps> tap_back{};
  // Per phase column b: the first input column in it, and that column's
  // cell in a block's phases relative to its row.
  std::array<int, kMaxKernel> col_iw0{};
  std::array<std::size_t, kMaxKernel> col_cell{};

  PoolGrid(const Shape4& x, const Pool2dSpec& spec)
      : in(x), out(spec.out_shape(x)), p(spec) {
    const int s = spec.stride;
    const int hq = (x.h + 2 * spec.padding + s - 1) / s;
    wq = (x.w + 2 * spec.padding + s - 1) / s;
    plane_slots = static_cast<std::size_t>(hq) * wq;
    // About 8 KiB of padded input per block keeps its buffers in L1.
    block = std::max<std::size_t>(
        1, 2048 / (plane_slots * static_cast<std::size_t>(s * s)));
    ntaps = spec.kernel * spec.kernel;
    for (int t = 0; t < ntaps; ++t) {
      const int r = t / spec.kernel, c = t % spec.kernel;
      tap_phase[static_cast<std::size_t>(t)] = r % s * s + c % s;
      tap_back[static_cast<std::size_t>(t)] =
          static_cast<std::size_t>(r / s) * wq +
          static_cast<std::size_t>(c / s);
    }
    phase_len = slots(block) + tap_back[static_cast<std::size_t>(ntaps - 1)];
    for (int b = 0; b < s; ++b) {
      const auto i = static_cast<std::size_t>(b);
      col_iw0[i] = ((b - spec.padding) % s + s) % s;
      col_cell[i] = i * phase_len +
                    static_cast<std::size_t>((col_iw0[i] + spec.padding) / s);
    }
  }

  std::size_t planes() const { return static_cast<std::size_t>(in.n) * in.c; }
  int phases() const { return p.stride * p.stride; }
  // Slots of a block of np planes, rounded up to whole register blocks.
  std::size_t slots(std::size_t np) const {
    return (np * plane_slots + kPoolLanes - 1) / kPoolLanes * kPoolLanes;
  }
  // Slot of output (oh, ow) within its plane.
  std::size_t slot(int oh, int ow) const {
    return static_cast<std::size_t>(oh) * wq + ow;
  }
  // Where tap t of slot 0 reads in a block's phases.
  std::size_t tap_off(int t) const {
    const auto i = static_cast<std::size_t>(t);
    return static_cast<std::size_t>(tap_phase[i]) * phase_len + tap_back[i];
  }
  // Calls run(ih, cells) for each input row of plane pl: cells[b] is
  // where the row's inputs col_iw0[b], col_iw0[b] + stride, ... start in
  // phase column b of a block's phases.
  template <typename Run>
  void for_each_row(std::size_t pl, Run&& run) const {
    const int s = p.stride;
    int a = p.padding % s;  // phase row and row within it of input row ih
    std::size_t rq = static_cast<std::size_t>(p.padding / s);
    std::array<std::size_t, kMaxKernel> cells{};
    for (int ih = 0; ih < in.h; ++ih) {
      const std::size_t row = static_cast<std::size_t>(a * s) * phase_len +
                              pl * plane_slots + rq * wq;
      for (std::size_t b = 0; b < static_cast<std::size_t>(s); ++b) {
        cells[b] = row + col_cell[b];
      }
      run(ih, cells);
      if (++a == s) {
        a = 0;
        ++rq;
      }
    }
  }

  // Copies planes [p0, p0 + np) of x into the phases in `buf`, padded
  // with `fill`.
  void pad(const float* x, std::size_t p0, std::size_t np, float fill,
           std::vector<float>& buf) const {
    buf.assign(static_cast<std::size_t>(phases()) * phase_len, fill);
    const int s = p.stride;
    for (std::size_t pl = 0; pl < np; ++pl) {
      const float* xp = x + (p0 + pl) * in.plane();
      for_each_row(pl, [&](int ih, const auto& cells) {
        const float* src = xp + static_cast<std::size_t>(ih) * in.w;
        if (s == 1) {
          copy_row(src, buf.data() + cells[0], in.w);
        } else if (s == 2) {
          split_row(src, buf.data() + cells[even_col()],
                    buf.data() + cells[1 - even_col()], in.w);
        } else {
          for (std::size_t b = 0; b < static_cast<std::size_t>(s); ++b) {
            float* dst = buf.data() + cells[b];
            for (int iw = col_iw0[b]; iw < in.w; iw += s) *dst++ = src[iw];
          }
        }
      });
    }
  }

  // Copies the input cells of the block's phases in `buf` to planes
  // [p0, p0 + np) of x.
  void unpad(const std::vector<float>& buf, std::size_t p0, std::size_t np,
             float* x) const {
    const int s = p.stride;
    for (std::size_t pl = 0; pl < np; ++pl) {
      float* xp = x + (p0 + pl) * in.plane();
      for_each_row(pl, [&](int ih, const auto& cells) {
        float* dst = xp + static_cast<std::size_t>(ih) * in.w;
        if (s == 1) {
          copy_row(buf.data() + cells[0], dst, in.w);
        } else if (s == 2) {
          join_row(buf.data() + cells[even_col()],
                   buf.data() + cells[1 - even_col()], dst, in.w);
        } else {
          for (std::size_t b = 0; b < static_cast<std::size_t>(s); ++b) {
            const float* src = buf.data() + cells[b];
            for (int iw = col_iw0[b]; iw < in.w; iw += s) dst[iw] = *src++;
          }
        }
      });
    }
  }

  // At stride 2, the phase column that holds the even input columns.
  std::size_t even_col() const { return col_iw0[0] == 0 ? 0 : 1; }
};

// One max-pool tap over eight slots: a value takes its slot over a
// smaller best, and as a NaN over a number; an equal value leaves the
// earlier one.
inline void max_step(const Vec8& v, const Mask8& tap, Vec8& best,
                     Mask8& best_tap) {
  const Mask8 take = ~(v <= best) & (best == best);
  const Mask8 kept = __builtin_bit_cast(Mask8, best) & ~take;
  best = __builtin_bit_cast(Vec8, (__builtin_bit_cast(Mask8, v) & take) | kept);
  best_tap = (tap & take) | (best_tap & ~take);
}

// Max over every tap of `slots` slots. Each slot starts at -inf on the
// tap in `first_tap`.
void max_blocks(const PoolGrid& g, std::size_t slots, const float* padded,
                const int* first_tap, float* best, int* best_tap) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (std::size_t q = 0; q < slots; q += kPoolLanes) {
    std::array<Vec8, kChains> b;
    std::array<Mask8, kChains> k;
    b.fill(Vec8{-kInf, -kInf, -kInf, -kInf, -kInf, -kInf, -kInf, -kInf});
    std::memcpy(k.data(), first_tap + q, sizeof k);
    for (int t = 0; t < g.ntaps; ++t) {
      const float* src = padded + g.tap_off(t) + q;
      const Mask8 tap = {t, t, t, t, t, t, t, t};
      for (std::size_t j = 0; j < kChains; ++j) {
        Vec8 v;
        load8(src + j * kVec, v);
        max_step(v, tap, b[j], k[j]);
      }
    }
    std::memcpy(best + q, b.data(), sizeof b);
    std::memcpy(best_tap + q, k.data(), sizeof k);
  }
}

// Sums over every tap of `slots` slots, each from +0 in tap order.
void sum_blocks(const PoolGrid& g, std::size_t slots, const float* padded,
                float* acc) {
  for (std::size_t q = 0; q < slots; q += kPoolLanes) {
    std::array<Vec8, kChains> a{};
    for (int t = 0; t < g.ntaps; ++t) {
      const float* src = padded + g.tap_off(t) + q;
      for (std::size_t j = 0; j < kChains; ++j) {
        Vec8 v;
        load8(src + j * kVec, v);
        a[j] += v;
      }
    }
    std::memcpy(acc + q, a.data(), sizeof a);
  }
}

// The avg-pool backward gathers each padded input cell's gradient: tap t
// adds the slot it reads that cell for, taps in (r, c) descending order,
// which is (oh, ow) ascending for each input element, as the scalar loop
// scattered them. A phase's cells share their taps. `wide` holds a block's
// output gradient on the slot grid after `margin` zeros (the largest step
// back); junk slots and the margin hold zeros, which add nothing to a sum
// that starts at +0.
void gather_taps(const PoolGrid& g, std::size_t slots, std::size_t margin,
                 const std::vector<float>& wide, std::vector<float>& padded) {
  padded.resize(static_cast<std::size_t>(g.phases()) * g.phase_len);
  for (int ph = 0; ph < g.phases(); ++ph) {
    std::array<std::size_t, kMaxTaps> back{};
    int nb = 0;
    for (int t = g.ntaps - 1; t >= 0; --t) {
      const auto i = static_cast<std::size_t>(t);
      if (g.tap_phase[i] == ph) {
        back[static_cast<std::size_t>(nb++)] = g.tap_back[i];
      }
    }
    float* dst = padded.data() + static_cast<std::size_t>(ph) * g.phase_len;
    for (std::size_t m = 0; m < slots; m += kPoolLanes) {
      std::array<Vec8, kChains> a{};
      for (int b = 0; b < nb; ++b) {
        const float* src =
            wide.data() + margin + m - back[static_cast<std::size_t>(b)];
        for (std::size_t j = 0; j < kChains; ++j) {
          Vec8 v;
          load8(src + j * kVec, v);
          a[j] += v;
        }
      }
      std::memcpy(dst + m, a.data(), sizeof a);
    }
  }
}

}  // namespace

void maxpool2d_forward(const Shape4& in, const Pool2dSpec& p,
                       const float* __restrict x, float* __restrict y,
                       std::uint8_t* __restrict tap) {
  const PoolGrid g(in, p);
  const std::size_t y_plane = g.out.plane();
  // A slot starts at -inf on its window's first in-bounds tap. Padding
  // reads -inf, which never takes a slot, so the first in-bounds element
  // holds it unless a later one beats it, as in the scalar loop. Every
  // block lays its planes out alike, so one table serves them all.
  thread_local std::vector<int> first_tap;
  first_tap.assign(g.slots(g.block), 0);
  for (std::size_t pl = 0; pl < g.block; ++pl) {
    for (int oh = 0; oh < g.out.h; ++oh) {
      for (int ow = 0; ow < g.out.w; ++ow) {
        const int r = std::max(0, p.padding - oh * p.stride);
        const int c = std::max(0, p.padding - ow * p.stride);
        first_tap[pl * g.plane_slots + g.slot(oh, ow)] = r * p.kernel + c;
      }
    }
  }
  thread_local std::vector<float> padded, best;
  thread_local std::vector<int> best_tap;
  for (std::size_t p0 = 0; p0 < g.planes(); p0 += g.block) {
    const std::size_t np = std::min(g.block, g.planes() - p0);
    const std::size_t slots = g.slots(np);
    g.pad(x, p0, np, -std::numeric_limits<float>::infinity(), padded);
    best.resize(slots);
    best_tap.resize(slots);
    max_blocks(g, slots, padded.data(), first_tap.data(), best.data(),
               best_tap.data());
    float* yp = y + p0 * y_plane;
    std::uint8_t* tp = tap + p0 * y_plane;
    for (std::size_t pl = 0; pl < np; ++pl) {
      for (int oh = 0; oh < g.out.h; ++oh, yp += g.out.w, tp += g.out.w) {
        const std::size_t q = pl * g.plane_slots + g.slot(oh, 0);
        copy_row(best.data() + q, yp, g.out.w);
        narrow_row(best_tap.data() + q, tp, g.out.w);
      }
    }
  }
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

// Reads zero padding, which changes no sum that starts at +0: such a sum
// is never -0.
void avgpool2d_forward(const Shape4& in, const Pool2dSpec& p,
                       const float* __restrict x, float* __restrict y) {
  const PoolGrid g(in, p);
  // count_include_pad=True semantics (matches PyTorch default used by
  // DARTS): divide by the full window size.
  const float inv = 1.0F / static_cast<float>(p.kernel * p.kernel);
  thread_local std::vector<float> padded, acc;
  for (std::size_t p0 = 0; p0 < g.planes(); p0 += g.block) {
    const std::size_t np = std::min(g.block, g.planes() - p0);
    const std::size_t slots = g.slots(np);
    g.pad(x, p0, np, 0.0F, padded);
    acc.resize(slots);
    sum_blocks(g, slots, padded.data(), acc.data());
    float* yp = y + p0 * g.out.plane();
    for (std::size_t pl = 0; pl < np; ++pl) {
      for (int oh = 0; oh < g.out.h; ++oh, yp += g.out.w) {
        scale_row(acc.data() + pl * g.plane_slots + g.slot(oh, 0), inv, yp,
                  g.out.w);
      }
    }
  }
}

void avgpool2d_backward(const Shape4& in, const Pool2dSpec& p,
                        const float* __restrict gy, float* __restrict gx) {
  const PoolGrid g(in, p);
  const float inv = 1.0F / static_cast<float>(p.kernel * p.kernel);
  const std::size_t margin =
      g.tap_back[static_cast<std::size_t>(g.ntaps - 1)];
  thread_local std::vector<float> wide, padded;
  for (std::size_t p0 = 0; p0 < g.planes(); p0 += g.block) {
    const std::size_t np = std::min(g.block, g.planes() - p0);
    const std::size_t slots = g.slots(np);
    wide.assign(margin + slots, 0.0F);
    const float* gyp = gy + p0 * g.out.plane();
    for (std::size_t pl = 0; pl < np; ++pl) {
      for (int oh = 0; oh < g.out.h; ++oh, gyp += g.out.w) {
        scale_row(gyp, inv,
                  wide.data() + margin + pl * g.plane_slots + g.slot(oh, 0),
                  g.out.w);
      }
    }
    gather_taps(g, slots, margin, wide, padded);
    g.unpad(padded, p0, np, gx);
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
      // fms-lint: allow(float-eq) -- exact-zero sparsity skip
      if (av == 0.0F) continue;
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
      // fms-lint: allow(float-eq) -- exact-zero sparsity skip
      if (av == 0.0F) continue;
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
