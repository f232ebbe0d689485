// The direct conv2d loops the library ran before its vectorized kernels,
// kept verbatim as the test oracle. Every multiply-add goes through the
// same explicit-FMA helper the library uses (fms::fmadd), so on any build
// the library kernels must reproduce these results bit for bit:
//   y       taps summed in (ic, r, c) order per output element;
//   grad_w  summed over (n, oh, ow) ascending per weight;
//   grad_x  summed oc-major, then (oh, ow) ascending per input element.
// The backward skips grad_y == 0 exactly as the old kernel did.
#pragma once

#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"

namespace fms::ref {

inline Tensor conv2d_forward(const Tensor& x, const Tensor& w,
                             const Conv2dSpec& spec) {
  FMS_CHECK(x.ndim() == 4 && w.ndim() == 4);
  const int n = x.dim(0), cin = x.dim(1), h = x.dim(2), ww = x.dim(3);
  const int cout = w.dim(0), cin_g = w.dim(1), kh = w.dim(2), kw = w.dim(3);
  const int g = spec.groups;
  FMS_CHECK(cin % g == 0 && cout % g == 0 && cin / g == cin_g);
  const int ho = conv_out_size(h, kh, spec.stride, spec.padding, spec.dilation);
  const int wo = conv_out_size(ww, kw, spec.stride, spec.padding, spec.dilation);
  const int cout_g = cout / g;

  Tensor y({n, cout, ho, wo});
  for (int in = 0; in < n; ++in) {
    for (int gi = 0; gi < g; ++gi) {
      for (int oc = 0; oc < cout_g; ++oc) {
        const int oc_abs = gi * cout_g + oc;
        for (int oh = 0; oh < ho; ++oh) {
          for (int ow = 0; ow < wo; ++ow) {
            float acc = 0.0F;
            for (int ic = 0; ic < cin_g; ++ic) {
              const int ic_abs = gi * cin_g + ic;
              for (int r = 0; r < kh; ++r) {
                const int ih = oh * spec.stride - spec.padding + r * spec.dilation;
                if (ih < 0 || ih >= h) continue;
                for (int c = 0; c < kw; ++c) {
                  const int iw = ow * spec.stride - spec.padding + c * spec.dilation;
                  if (iw < 0 || iw >= ww) continue;
                  acc = fmadd(x.at4(in, ic_abs, ih, iw), w.at4(oc_abs, ic, r, c),
                              acc);
                }
              }
            }
            y.at4(in, oc_abs, oh, ow) = acc;
          }
        }
      }
    }
  }
  return y;
}

inline Conv2dGrads conv2d_backward(const Tensor& x, const Tensor& w,
                                   const Tensor& grad_y,
                                   const Conv2dSpec& spec) {
  const int n = x.dim(0), cin = x.dim(1), h = x.dim(2), ww = x.dim(3);
  const int cout = w.dim(0), cin_g = w.dim(1), kh = w.dim(2), kw = w.dim(3);
  const int g = spec.groups;
  const int ho = grad_y.dim(2), wo = grad_y.dim(3);
  FMS_CHECK(grad_y.dim(0) == n && grad_y.dim(1) == cout);
  const int cout_g = cout / g;

  Conv2dGrads out{Tensor({n, cin, h, ww}), Tensor({cout, cin_g, kh, kw})};
  for (int in = 0; in < n; ++in) {
    for (int gi = 0; gi < g; ++gi) {
      for (int oc = 0; oc < cout_g; ++oc) {
        const int oc_abs = gi * cout_g + oc;
        for (int oh = 0; oh < ho; ++oh) {
          for (int ow = 0; ow < wo; ++ow) {
            const float gy = grad_y.at4(in, oc_abs, oh, ow);
            // fms-lint: allow(float-eq) -- exact-zero sparsity skip (ReLU)
            if (gy == 0.0F) continue;
            for (int ic = 0; ic < cin_g; ++ic) {
              const int ic_abs = gi * cin_g + ic;
              for (int r = 0; r < kh; ++r) {
                const int ih = oh * spec.stride - spec.padding + r * spec.dilation;
                if (ih < 0 || ih >= h) continue;
                for (int c = 0; c < kw; ++c) {
                  const int iw = ow * spec.stride - spec.padding + c * spec.dilation;
                  if (iw < 0 || iw >= ww) continue;
                  float& gx = out.grad_x.at4(in, ic_abs, ih, iw);
                  gx = fmadd(gy, w.at4(oc_abs, ic, r, c), gx);
                  float& gw = out.grad_w.at4(oc_abs, ic, r, c);
                  gw = fmadd(gy, x.at4(in, ic_abs, ih, iw), gw);
                }
              }
            }
          }
        }
      }
    }
  }
  return out;
}

}  // namespace fms::ref
