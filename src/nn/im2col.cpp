#include "nn/im2col.hpp"

#include <algorithm>
#include <cstring>

namespace s2a::nn {

void im2col(const double* x, int cin, int h, int w, int k, int stride,
            int pad, double* col) {
  const int oh = conv_out_size(h, k, stride, pad);
  const int ow = conv_out_size(w, k, stride, pad);
  double* out = col;
  for (int ic = 0; ic < cin; ++ic) {
    const double* plane = x + static_cast<std::size_t>(ic) * h * w;
    for (int ky = 0; ky < k; ++ky)
      for (int kx = 0; kx < k; ++kx) {
        // The tap reads ix = ix0 + ox*stride, which lies in [0, w)
        // exactly for ox in [ox_lo, ox_hi). Fixing that span once per
        // tap leaves each row a zero-fill, a branch-free gather (a
        // memcpy at stride 1) and a zero-fill.
        const int ix0 = kx - pad;  // ix at ox = 0
        const int ox_lo =
            std::min(ow, ix0 >= 0 ? 0 : (stride - 1 - ix0) / stride);
        const int ox_hi = std::max(
            ox_lo, std::min(ow, w > ix0 ? (w - ix0 + stride - 1) / stride : 0));
        // One lowered row: tap (ic, ky, kx) for every output pixel, in
        // (oy, ox) order.
        for (int oy = 0; oy < oh; ++oy) {
          double* row = out + static_cast<std::size_t>(oy) * ow;
          const int iy = oy * stride + ky - pad;
          if (iy < 0 || iy >= h) {
            std::memset(row, 0, sizeof(double) * static_cast<std::size_t>(ow));
            continue;
          }
          const double* src = plane + static_cast<std::size_t>(iy) * w;
          std::fill(row, row + ox_lo, 0.0);
          if (stride == 1) {
            if (ox_hi > ox_lo)
              std::memcpy(row + ox_lo, src + ix0 + ox_lo,
                          sizeof(double) *
                              static_cast<std::size_t>(ox_hi - ox_lo));
          } else {
            for (int ox = ox_lo; ox < ox_hi; ++ox)
              row[ox] = src[ix0 + ox * stride];
          }
          std::fill(row + ox_hi, row + ow, 0.0);
        }
        out += static_cast<std::size_t>(oh) * ow;
      }
  }
}

void col2im(const double* col, int cin, int h, int w, int k, int stride,
            int pad, double* x) {
  const int oh = conv_out_size(h, k, stride, pad);
  const int ow = conv_out_size(w, k, stride, pad);
  const double* in = col;
  for (int ic = 0; ic < cin; ++ic) {
    double* plane = x + static_cast<std::size_t>(ic) * h * w;
    for (int ky = 0; ky < k; ++ky)
      for (int kx = 0; kx < k; ++kx) {
        for (int oy = 0; oy < oh; ++oy) {
          const double* row = in + static_cast<std::size_t>(oy) * ow;
          const int iy = oy * stride + ky - pad;
          if (iy < 0 || iy >= h) continue;
          double* dst = plane + static_cast<std::size_t>(iy) * w;
          for (int ox = 0; ox < ow; ++ox) {
            const int ix = ox * stride + kx - pad;
            if (ix < 0 || ix >= w) continue;
            dst[ix] += row[ox];
          }
        }
        in += static_cast<std::size_t>(oh) * ow;
      }
  }
}

void im2col_t(const double* x, int cin, int h, int w, int k, int stride,
              int pad, double* colt) {
  const int oh = conv_out_size(h, k, stride, pad);
  const int ow = conv_out_size(w, k, stride, pad);
  double* row = colt;
  for (int oy = 0; oy < oh; ++oy)
    for (int ox = 0; ox < ow; ++ox) {
      // One lowered row: every tap output pixel (oy, ox) reads, walked
      // in the naive accumulation order (ic, ky, kx).
      double* out = row;
      for (int ic = 0; ic < cin; ++ic) {
        const double* plane = x + static_cast<std::size_t>(ic) * h * w;
        for (int ky = 0; ky < k; ++ky) {
          const int iy = oy * stride + ky - pad;
          if (iy < 0 || iy >= h) {
            std::fill_n(out, k, 0.0);
            out += k;
            continue;
          }
          const double* src = plane + static_cast<std::size_t>(iy) * w;
          for (int kx = 0; kx < k; ++kx) {
            const int ix = ox * stride + kx - pad;
            out[kx] = (ix < 0 || ix >= w) ? 0.0 : src[ix];
          }
          out += k;
        }
      }
      row += static_cast<std::size_t>(cin) * k * k;
    }
}

}  // namespace s2a::nn
