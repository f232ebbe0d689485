#include "src/tensor/ops.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>

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
  int window_macs = 0;  // sum of the taps' window sizes
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
        window_macs += (rs.hi - rs.lo) * (cs.hi - cs.lo);
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

}  // namespace

// The kernels vectorize across output elements while every element keeps
// the reduction order of the direct loops they replaced (kept as the test
// oracle in tests/conv_reference.h), one fused multiply-add (fmadd) per
// term, so their results are bit-identical to those loops':
//   y       taps in (ic, r, c) order: one shifted axpy per tap;
//   grad_x  oc-major, then taps in (r, c) descending order, which is
//           (oh, ow) ascending for each input element;
//   grad_w  over (n, oh, ow) ascending: rank-1 updates of each weight row
//           by im2col rows, vectorized along the row; for depthwise convs
//           (one input channel per group), the kh * kw chains of an output
//           channel advanced together per output position.
// Taps in the padding are skipped (y, grad_x) or read as 0 (grad_w, where
// fma(g, 0, acc) == acc for finite g). The backward does not skip
// grad_y == 0: with finite operands that term adds exactly nothing, and
// with a NaN/Inf operand it now reaches the gradient instead of being
// dropped.
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

  // grad_w, read from zero-padded copies of each image's group planes.
  const int positions = ho * wo;
  thread_local std::vector<float> padded;
  if (cin_g == 1) {
    // Depthwise: an im2col row would serve one output channel only, so
    // each channel's kh * kw weight chains run directly. On planes where
    // most (position, tap) pairs fall in the padding (1x1, 2x2 with a wide
    // kernel) each chain walks just its window; elsewhere all chains
    // advance together per position over a zero-padded plane, trading
    // reads of padding for independent FMAs (a lone chain waits out the
    // FMA latency, about 4x its throughput cost).
    const bool windowed = 4 * geom.window_macs < positions * taps;
    std::array<float, kMaxTaps> acc{};
    for (int in = 0; in < n; ++in) {
      for (int gi = 0; gi < g; ++gi) {
        const float* xp =
            x.data() + (static_cast<std::size_t>(in) * cin + gi) * x_plane;
        const float* xg =
            windowed ? xp : geom.padded_planes(xp, 1, padded);
        for (int oc = gi * cout_g; oc < (gi + 1) * cout_g; ++oc) {
          float* gwp = out.grad_w.data() + static_cast<std::size_t>(oc) * taps;
          const float* gyp =
              grad_y.data() +
              (static_cast<std::size_t>(in) * cout + oc) * y_plane;
          if (windowed) {
            for (int t = 0; t < geom.ntaps; ++t) {
              const Tap& tap = geom.taps[static_cast<std::size_t>(t)];
              float a = gwp[tap.k];
              const float* gs = gyp + tap.out_off;
              const float* xs = xg + tap.in_off;
              for (int i = 0; i < tap.nrows;
                   ++i, gs += wo, xs += geom.stride * ww) {
                for (int j = 0; j < tap.len; ++j) {
                  a = fmadd(gs[j], xs[j * geom.stride], a);
                }
              }
              gwp[tap.k] = a;
            }
            continue;
          }
          std::copy(gwp, gwp + taps, acc.begin());
          for (int p = 0; p < positions; ++p) {
            const float gv = gyp[p];
            const float* base = xg + geom.pad_base(p);
            for (int t = 0; t < taps; ++t) {
              const auto ti = static_cast<std::size_t>(t);
              acc[ti] = fmadd(gv, base[geom.pad_off[ti]], acc[ti]);
            }
          }
          std::copy(acc.begin(), acc.begin() + taps, gwp);
        }
      }
    }
    return out;
  }
  // Dense and grouped: im2col rows in chunks of at most kColFloats, each
  // folded into every weight row of its group in output-position order.
  const int chunk = std::clamp(kColFloats / k, 1, positions);
  thread_local std::vector<float> col;
  if (col.size() < static_cast<std::size_t>(chunk) * k) {
    col.resize(static_cast<std::size_t>(chunk) * k);
  }
  for (int in = 0; in < n; ++in) {
    for (int gi = 0; gi < g; ++gi) {
      const float* xg = geom.padded_planes(
          x.data() + (static_cast<std::size_t>(in) * cin + gi * cin_g) * x_plane,
          cin_g, padded);
      for (int p0 = 0; p0 < positions; p0 += chunk) {
        const int p1 = std::min(positions, p0 + chunk);
        float* row = col.data();
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
          const float* crow = col.data();
          for (int p = p0; p < p1; ++p, crow += k) {
            axpy(k, gyp[p], crow, 1, gwp, 1);
          }
        }
      }
    }
  }
  return out;
}

MaxPoolResult maxpool2d_forward(const Tensor& x, int kernel, int stride,
                                int padding) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int ho = conv_out_size(h, kernel, stride, padding, 1);
  const int wo = conv_out_size(w, kernel, stride, padding, 1);
  MaxPoolResult res{Tensor({n, c, ho, wo}), {}};
  res.argmax.resize(res.y.numel());
  std::size_t oi = 0;
  for (int in = 0; in < n; ++in) {
    for (int ic = 0; ic < c; ++ic) {
      for (int oh = 0; oh < ho; ++oh) {
        for (int ow = 0; ow < wo; ++ow, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          bool found = false;
          for (int r = 0; r < kernel; ++r) {
            const int ih = oh * stride - padding + r;
            if (ih < 0 || ih >= h) continue;
            for (int cc = 0; cc < kernel; ++cc) {
              const int iw = ow * stride - padding + cc;
              if (iw < 0 || iw >= w) continue;
              const float v = x.at4(in, ic, ih, iw);
              if (!found || v > best) {
                best = v;
                best_idx = x.offset4(in, ic, ih, iw);
                found = true;
              }
            }
          }
          // Window fully in padding cannot happen with valid out sizes.
          res.y[oi] = found ? best : 0.0F;
          res.argmax[oi] = best_idx;
        }
      }
    }
  }
  return res;
}

Tensor maxpool2d_backward(const Tensor& x, const MaxPoolResult& fwd,
                          const Tensor& grad_y) {
  Tensor grad_x(x.shape());
  FMS_CHECK(grad_y.numel() == fwd.argmax.size());
  for (std::size_t i = 0; i < fwd.argmax.size(); ++i) {
    grad_x[fwd.argmax[i]] += grad_y[i];
  }
  return grad_x;
}

Tensor avgpool2d_forward(const Tensor& x, int kernel, int stride, int padding) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int ho = conv_out_size(h, kernel, stride, padding, 1);
  const int wo = conv_out_size(w, kernel, stride, padding, 1);
  Tensor y({n, c, ho, wo});
  const float inv = 1.0F / static_cast<float>(kernel * kernel);
  for (int in = 0; in < n; ++in) {
    for (int ic = 0; ic < c; ++ic) {
      for (int oh = 0; oh < ho; ++oh) {
        for (int ow = 0; ow < wo; ++ow) {
          float acc = 0.0F;
          for (int r = 0; r < kernel; ++r) {
            const int ih = oh * stride - padding + r;
            if (ih < 0 || ih >= h) continue;
            for (int cc = 0; cc < kernel; ++cc) {
              const int iw = ow * stride - padding + cc;
              if (iw < 0 || iw >= w) continue;
              acc += x.at4(in, ic, ih, iw);
            }
          }
          // count_include_pad=True semantics (matches PyTorch default used
          // by DARTS): divide by the full window size.
          y.at4(in, ic, oh, ow) = acc * inv;
        }
      }
    }
  }
  return y;
}

Tensor avgpool2d_backward(const Tensor& x, const Tensor& grad_y, int kernel,
                          int stride, int padding) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int ho = grad_y.dim(2), wo = grad_y.dim(3);
  Tensor grad_x(x.shape());
  const float inv = 1.0F / static_cast<float>(kernel * kernel);
  for (int in = 0; in < n; ++in) {
    for (int ic = 0; ic < c; ++ic) {
      for (int oh = 0; oh < ho; ++oh) {
        for (int ow = 0; ow < wo; ++ow) {
          const float gy = grad_y.at4(in, ic, oh, ow) * inv;
          for (int r = 0; r < kernel; ++r) {
            const int ih = oh * stride - padding + r;
            if (ih < 0 || ih >= h) continue;
            for (int cc = 0; cc < kernel; ++cc) {
              const int iw = ow * stride - padding + cc;
              if (iw < 0 || iw >= w) continue;
              grad_x.at4(in, ic, ih, iw) += gy;
            }
          }
        }
      }
    }
  }
  return grad_x;
}

Tensor global_avgpool_forward(const Tensor& x) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor y({n, c});
  const float inv = 1.0F / static_cast<float>(h * w);
  for (int in = 0; in < n; ++in) {
    for (int ic = 0; ic < c; ++ic) {
      float acc = 0.0F;
      for (int ih = 0; ih < h; ++ih)
        for (int iw = 0; iw < w; ++iw) acc += x.at4(in, ic, ih, iw);
      y.at2(in, ic) = acc * inv;
    }
  }
  return y;
}

Tensor global_avgpool_backward(const Tensor& x, const Tensor& grad_y) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor grad_x(x.shape());
  const float inv = 1.0F / static_cast<float>(h * w);
  for (int in = 0; in < n; ++in) {
    for (int ic = 0; ic < c; ++ic) {
      const float gy = grad_y.at2(in, ic) * inv;
      for (int ih = 0; ih < h; ++ih)
        for (int iw = 0; iw < w; ++iw) grad_x.at4(in, ic, ih, iw) = gy;
    }
  }
  return grad_x;
}

Tensor relu_forward(const Tensor& x) {
  Tensor y = x;
  for (std::size_t i = 0; i < y.numel(); ++i) y[i] = std::max(0.0F, y[i]);
  return y;
}

Tensor relu_backward(const Tensor& x, const Tensor& grad_y) {
  FMS_CHECK(x.same_shape(grad_y));
  Tensor grad_x(x.shape());
  for (std::size_t i = 0; i < x.numel(); ++i) {
    grad_x[i] = x[i] > 0.0F ? grad_y[i] : 0.0F;
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
