#include "nn/conv2d.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <initializer_list>

#include "nn/gemm.hpp"
#include "nn/im2col.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace s2a::nn {

namespace {

std::atomic<ConvBackend> g_backend{ConvBackend::kAuto};

// Runs fn(b, scratch) for every image b of an n-image forward. A single
// image runs inline in `arena` itself (on top of the caller's packed
// weights), so a one-sample forward never touches the pool. A batch
// spreads whole images over the global pool, one chunk of images per
// ScratchArena slot. Each image writes only its own slice of y with its
// serial per-element chains, so results are bit-exact at every thread
// count and for every batch composition.
void for_each_image(
    int n, util::ScratchArena& arena,
    const std::function<void(int, util::ScratchArena&)>& fn) {
  if (n == 1) {
    fn(0, arena);
    return;
  }
  util::ThreadPool& pool = util::global_pool();
  const std::size_t images = static_cast<std::size_t>(n);
  const std::size_t slots = static_cast<std::size_t>(pool.size());
  const std::size_t grain =
      std::max<std::size_t>(1, (images + slots - 1) / slots);
  arena.ensure_slots(util::ThreadPool::num_chunks(0, images, grain));
  pool.parallel_for_chunks(
      0, images, grain,
      [&fn, &arena](std::size_t lo, std::size_t hi, std::size_t c) {
        util::ScratchArena& slot = arena.slot(c);
        for (std::size_t b = lo; b < hi; ++b) {
          slot.reset();
          fn(static_cast<int>(b), slot);
        }
      });
}

// The int8 forwards quantize their whole input once, into a copy in
// `arena`, against ONE per-tensor scale (returned in xs). Gathering
// codes equals quantizing gathered values — padding zeros are zero
// codes — and each input value is quantized once instead of once per
// tap that reads it.
const double* quantized_input(const Tensor& x, util::ScratchArena& arena,
                              double& xs) {
  xs = activation_scale(x.data(), x.numel());
  double* q = arena.alloc(x.numel());
  std::copy_n(x.data(), x.numel(), q);
  quantize_values(q, x.numel(), xs);
  return q;
}

Tensor conv_weight_init(int c0, int c1, int k, Rng& rng) {
  const int fan_in = c1 * k * k;
  Tensor w({c0, c1, k, k});
  const double stddev = std::sqrt(2.0 / fan_in);
  for (std::size_t i = 0; i < w.numel(); ++i) w[i] = rng.normal(0.0, stddev);
  return w;
}

inline std::size_t idx4(int a, int b, int c, int d, int db, int dc, int dd) {
  return ((static_cast<std::size_t>(a) * db + b) * dc + c) * dd + d;
}

// Bytes of the tensors a pass reads and writes, for its span's args.
std::uint64_t tensor_bytes(std::initializer_list<std::size_t> numels) {
  std::uint64_t total = 0;
  for (const std::size_t n : numels) total += n * sizeof(double);
  return total;
}
}  // namespace

void set_conv_backend(ConvBackend backend) { g_backend.store(backend); }

ConvBackend conv_backend() {
  const ConvBackend b = g_backend.load();
  if (b != ConvBackend::kAuto) return b;
  const char* s = std::getenv("S2A_NAIVE_CONV");
  return (s != nullptr && *s == '1') ? ConvBackend::kNaive
                                     : ConvBackend::kGemm;
}

Conv2D::Conv2D(int in_channels, int out_channels, int kernel, int stride,
               int padding, Rng& rng)
    : cin_(in_channels),
      cout_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(padding),
      w_(conv_weight_init(out_channels, in_channels, kernel, rng)),
      b_({out_channels}),
      gw_({out_channels, in_channels, kernel, kernel}),
      gb_({out_channels}) {
  S2A_CHECK(kernel > 0 && stride > 0 && padding >= 0);
}

Tensor Conv2D::forward(const Tensor& x) {
  S2A_CHECK_MSG(x.shape().size() == 4 && x.dim(1) == cin_,
                "Conv2D expects [N," << cin_ << ",H,W]");
  last_x_ = x;
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int oh = out_size(h), ow = out_size(w);
  S2A_CHECK_MSG(oh > 0 && ow > 0, "conv output collapsed to zero");
  last_out_hw_ = static_cast<std::size_t>(oh) * ow;

  Tensor y({n, cout_, oh, ow});
  S2A_TRACE_SCOPE_WORK("nn.conv_forward", "nn", macs_per_sample() * n,
                       tensor_bytes({x.numel(), w_.numel(), b_.numel(),
                                     y.numel()}));
  if (conv_backend() == ConvBackend::kNaive)
    forward_naive(x, y, n, h, w, oh, ow);
  else
    forward_gemm(x, y, n, h, w, oh, ow);
  return y;
}

// im2col + blocked-GEMM path. The weight panel is packed ONCE per call
// and shared by every image; each image lowers its input patches into a
// column panel and multiplies the packed weights against it, writing
// its slice of y directly. The GEMM accumulates every element in
// ascending (ic, ky, kx) order — the naive loop's order — so this is
// bit-exact vs. forward_naive, across thread counts, and across batch
// compositions.
void Conv2D::forward_gemm(const Tensor& x, Tensor& y, int n, int h, int w,
                          int oh, int ow) {
  const int kdim = im2col_rows(cin_, k_);
  const int out_hw = oh * ow;
  const std::size_t panel = static_cast<std::size_t>(kdim) * out_hw;
  arena_.reset();
  // Int8 path (quantize() + S2A_QUANT=1): the same lowering over the
  // quantized input, packed from the integer-valued weight snapshot
  // (nn/quant.hpp).
  const bool int8 = quantized_ && quant_backend() == QuantBackend::kInt8;
  double xs = 0.0;
  const double* src = int8 ? quantized_input(x, arena_, xs) : x.data();
  // Weights move between forwards during training, so repack per call —
  // O(cout*cin*k^2), noise next to the GEMM itself.
  double* wp = arena_.alloc(packed_a_size(cout_, kdim));
  pack_a(int8 ? qw_.data.data() : w_.data(), kdim, cout_, kdim, wp);

  for_each_image(n, arena_, [&](int b, util::ScratchArena& scratch) {
    const double* xb = src + static_cast<std::size_t>(b) * cin_ * h * w;
    double* yb = y.data() + static_cast<std::size_t>(b) * cout_ * out_hw;
    double* col = scratch.alloc(panel);
    im2col(xb, cin_, h, w, k_, stride_, pad_, col);
    for (int oc = 0; oc < cout_; ++oc)
      std::fill_n(yb + static_cast<std::size_t>(oc) * out_hw, out_hw,
                  b_[static_cast<std::size_t>(oc)]);
    if (int8) {
      gemm_quantized(cout_, out_hw, kdim, wp, qw_.scales.data(), col, out_hw,
                     xs, yb, out_hw, scratch);
    } else {
      gemm_packed(cout_, out_hw, kdim, wp, col, out_hw, yb, out_hw);
    }
  });
}

// Direct-loop oracle (S2A_NAIVE_CONV=1): the original implementation,
// kept verbatim so the kernel equivalence tests have a fixed reference.
void Conv2D::forward_naive(const Tensor& x, Tensor& y, int n, int h, int w,
                           int oh, int ow) {
  for (int b = 0; b < n; ++b)
    for (int oc = 0; oc < cout_; ++oc)
      for (int oy = 0; oy < oh; ++oy)
        for (int ox = 0; ox < ow; ++ox) {
          double acc = b_[static_cast<std::size_t>(oc)];
          for (int ic = 0; ic < cin_; ++ic)
            for (int ky = 0; ky < k_; ++ky) {
              const int iy = oy * stride_ + ky - pad_;
              if (iy < 0 || iy >= h) continue;
              for (int kx = 0; kx < k_; ++kx) {
                const int ix = ox * stride_ + kx - pad_;
                if (ix < 0 || ix >= w) continue;
                acc += x[idx4(b, ic, iy, ix, cin_, h, w)] *
                       w_[idx4(oc, ic, ky, kx, cin_, k_, k_)];
              }
            }
          y[idx4(b, oc, oy, ox, cout_, oh, ow)] = acc;
        }
}

Tensor Conv2D::backward(const Tensor& grad_out) {
  S2A_CHECK(!last_x_.empty());
  const int n = last_x_.dim(0), h = last_x_.dim(2), w = last_x_.dim(3);
  const int oh = out_size(h), ow = out_size(w);
  S2A_CHECK(grad_out.shape().size() == 4 && grad_out.dim(1) == cout_ &&
            grad_out.dim(2) == oh && grad_out.dim(3) == ow);
  // Two reductions (weight and input gradients), each the forward's MACs.
  S2A_TRACE_SCOPE_WORK("nn.conv_backward", "nn", 2 * macs_per_sample() * n,
                       tensor_bytes({grad_out.numel(), last_x_.numel(),
                                     w_.numel(), gw_.numel(),
                                     last_x_.numel()}));

  // Bias gradient, shared by both backends: one addend per output pixel
  // of the channel, accumulated in (b, oy, ox) order.
  const std::size_t out_hw = static_cast<std::size_t>(oh) * ow;
  for (int b = 0; b < n; ++b)
    for (int oc = 0; oc < cout_; ++oc) {
      const double* g = grad_out.data() +
                        (static_cast<std::size_t>(b) * cout_ + oc) * out_hw;
      double acc = gb_[static_cast<std::size_t>(oc)];
      for (std::size_t i = 0; i < out_hw; ++i) acc += g[i];
      gb_[static_cast<std::size_t>(oc)] = acc;
    }

  Tensor dx({n, cin_, h, w});
  if (conv_backend() == ConvBackend::kNaive)
    backward_naive(grad_out, dx, n, h, w, oh, ow);
  else
    backward_gemm(grad_out, dx, n, h, w, oh, ow);
  return dx;
}

// Direct-loop oracle (S2A_NAIVE_CONV=1), written in the GEMM chain
// order so the two backends agree bit-for-bit (the finite-difference
// tests independently pin the arithmetic):
//  - each gW element sums g*x over (b; oy, ox) ascending,
//  - each dx element sums per-tap (ky, kx ascending) sub-chains, each
//    sub-chain reducing over out-channels from zero first.
// Out-of-range taps are skipped here and zero-filled in the lowered
// matrices; adding a*0.0 to a finite accumulator is exact, so both
// treatments leave identical bits.
void Conv2D::backward_naive(const Tensor& grad_out, Tensor& dx, int n, int h,
                            int w, int oh, int ow) {
  for (int b = 0; b < n; ++b) {
    for (int oc = 0; oc < cout_; ++oc)
      for (int ic = 0; ic < cin_; ++ic)
        for (int ky = 0; ky < k_; ++ky)
          for (int kx = 0; kx < k_; ++kx) {
            double acc = gw_[idx4(oc, ic, ky, kx, cin_, k_, k_)];
            for (int oy = 0; oy < oh; ++oy) {
              const int iy = oy * stride_ + ky - pad_;
              if (iy < 0 || iy >= h) continue;
              for (int ox = 0; ox < ow; ++ox) {
                const int ix = ox * stride_ + kx - pad_;
                if (ix < 0 || ix >= w) continue;
                acc += grad_out[idx4(b, oc, oy, ox, cout_, oh, ow)] *
                       last_x_[idx4(b, ic, iy, ix, cin_, h, w)];
              }
            }
            gw_[idx4(oc, ic, ky, kx, cin_, k_, k_)] = acc;
          }
    for (int ic = 0; ic < cin_; ++ic)
      for (int iy = 0; iy < h; ++iy)
        for (int ix = 0; ix < w; ++ix) {
          double acc = 0.0;
          for (int ky = 0; ky < k_; ++ky) {
            const int num_y = iy + pad_ - ky;
            if (num_y < 0 || num_y % stride_ != 0) continue;
            const int oy = num_y / stride_;
            if (oy >= oh) continue;
            for (int kx = 0; kx < k_; ++kx) {
              const int num_x = ix + pad_ - kx;
              if (num_x < 0 || num_x % stride_ != 0) continue;
              const int ox = num_x / stride_;
              if (ox >= ow) continue;
              double t = 0.0;
              for (int oc = 0; oc < cout_; ++oc)
                t += grad_out[idx4(b, oc, oy, ox, cout_, oh, ow)] *
                     w_[idx4(oc, ic, ky, kx, cin_, k_, k_)];
              acc += t;
            }
          }
          dx[idx4(b, ic, iy, ix, cin_, h, w)] = acc;
        }
  }
}

// GEMM backward. Per image:
//   gW += G_b x im2col(x_b)ᵀ   (reduction over output pixels, ascending)
//   dcol = Wᵀ x G_b ; dx_b = col2im(dcol)   (per-tap oc-sums, folded in
//                                            (ky, kx) order)
// Every gradient element's chain matches backward_naive's, so the two
// backends are bit-identical.
void Conv2D::backward_gemm(const Tensor& grad_out, Tensor& dx, int n, int h,
                           int w, int oh, int ow) {
  const int kdim = im2col_rows(cin_, k_);
  const int out_hw = oh * ow;
  const std::size_t in_hw = static_cast<std::size_t>(h) * w;
  const std::size_t panel = static_cast<std::size_t>(kdim) * out_hw;
  arena_.reset();
  double* wt = arena_.alloc(static_cast<std::size_t>(kdim) * cout_);
  transpose(w_.data(), cout_, kdim, wt);
  double* wtp = arena_.alloc(packed_a_size(kdim, cout_));
  pack_a(wt, cout_, kdim, cout_, wtp);
  double* colt = arena_.alloc(panel);
  double* gpk = arena_.alloc(packed_a_size(cout_, out_hw));
  double* dcol = arena_.alloc(panel);

  for (int b = 0; b < n; ++b) {
    const double* gb =
        grad_out.data() + static_cast<std::size_t>(b) * cout_ * out_hw;
    const double* xb =
        last_x_.data() + static_cast<std::size_t>(b) * cin_ * in_hw;
    double* dxb = dx.data() + static_cast<std::size_t>(b) * cin_ * in_hw;

    // gW += G_b x im2col(x_b)ᵀ: each element's per-image reduction runs
    // over output pixels in ascending order.
    im2col_t(xb, cin_, h, w, k_, stride_, pad_, colt);
    pack_a(gb, out_hw, cout_, out_hw, gpk);
    gemm_packed(cout_, kdim, out_hw, gpk, colt, kdim, gw_.data(), kdim);

    // dcol = Wᵀ x G_b from zero, so each element's oc-reduction starts
    // from 0 like the oracle's t; col2im then adds each dx element's
    // (ky, kx) addends in order.
    std::fill_n(dcol, panel, 0.0);
    gemm_packed(kdim, out_hw, cout_, wtp, gb, out_hw, dcol, out_hw);
    col2im(dcol, cin_, h, w, k_, stride_, pad_, dxb);
  }
}

std::size_t Conv2D::macs_per_sample() const {
  return static_cast<std::size_t>(cout_) * cin_ * k_ * k_ * last_out_hw_;
}

void Conv2D::quantize() {
  // One row per output channel over the (ic, ky, kx) reduction — w_ is
  // [Cout, Cin, k, k] row-major, so each row is already contiguous.
  const int kdim = im2col_rows(cin_, k_);
  qw_ = quantize_rows(w_.data(), kdim, cout_, kdim);
  quantized_ = true;
}

ConvTranspose2D::ConvTranspose2D(int in_channels, int out_channels, int kernel,
                                 int stride, int padding, Rng& rng)
    : cin_(in_channels),
      cout_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(padding),
      w_(conv_weight_init(in_channels, out_channels, kernel, rng)),
      b_({out_channels}),
      gw_({in_channels, out_channels, kernel, kernel}),
      gb_({out_channels}) {
  S2A_CHECK(kernel > 0 && stride > 0 && padding >= 0);
  tap_begin_.push_back(0);
  for (int p = 0; p < stride; ++p) {
    for (int t = kernel - 1; t >= 0; --t)
      if (t % stride == p) taps_.push_back(t);
    tap_begin_.push_back(static_cast<int>(taps_.size()));
  }
  phase_wp_.assign(static_cast<std::size_t>(stride) * stride, nullptr);
}

int ConvTranspose2D::phase_kdim(int py, int px) const {
  return cin_ * num_taps(py) * num_taps(px);
}

// Rows (ic, jy, jx) of phase (py, px)'s [Cout, kdim] weight matrix,
// written in pack_a's layout for panel height `mr`: panel oc / mr,
// k-major within the panel, rows past Cout zero. mr == 1 is plain
// row-major.
void ConvTranspose2D::pack_phase_weights(int py, int px, int mr,
                                         double* out) const {
  const int* kys = taps(py);
  const int* kxs = taps(px);
  const int nky = num_taps(py), nkx = num_taps(px);
  const std::size_t oc_stride = static_cast<std::size_t>(k_) * k_;
  for (int i0 = 0; i0 < cout_; i0 += mr) {
    const int rows = std::min(mr, cout_ - i0);
    for (int ic = 0; ic < cin_; ++ic)
      for (int jy = 0; jy < nky; ++jy)
        for (int jx = 0; jx < nkx; ++jx) {
          const double* src =
              w_.data() + idx4(ic, i0, kys[jy], kxs[jx], cout_, k_, k_);
          for (int i = 0; i < rows; ++i)
            out[i] = src[static_cast<std::size_t>(i) * oc_stride];
          std::fill(out + rows, out + mr, 0.0);
          out += mr;
        }
  }
}

Tensor ConvTranspose2D::forward(const Tensor& x) {
  S2A_CHECK(x.shape().size() == 4 && x.dim(1) == cin_);
  last_x_ = x;
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int oh = out_size(h), ow = out_size(w);
  S2A_CHECK(oh > 0 && ow > 0);
  last_in_hw_ = static_cast<std::size_t>(h) * w;

  Tensor y({n, cout_, oh, ow});
  S2A_TRACE_SCOPE_WORK("nn.deconv_forward", "nn", macs_per_sample() * n,
                       tensor_bytes({x.numel(), w_.numel(), b_.numel(),
                                     y.numel()}));
  if (conv_backend() == ConvBackend::kNaive)
    forward_naive(x, y, n, h, w, oh, ow);
  else
    forward_gemm(x, y, n, h, w, oh, ow);
  return y;
}

// Deconv as flipped-kernel im2col with sub-pixel phase decomposition.
//
// Gathering output pixel (oy, ox) over flipped taps visits the
// scattering inputs in exactly the naive loop's (ic, iy, ix) order
// (iy/ix ascend as the flipped taps ascend), so the GEMM chain matches
// the naive scatter per element.
//
// For stride 1 every tap can contribute to every output pixel and a
// single full-K GEMM over im2col_flipped is efficient. For stride s > 1
// only taps with ky % s == (oy+pad) % s (and likewise for x) pass the
// phase gate — a full-K GEMM would spend (s*s-1)/(s*s) of its MACs
// multiplying structural zeros. So the output is split into its s*s
// sub-pixel phase grids, each with a dense tap list and its own
// repacked weight panel, and each phase runs a compact GEMM into a
// scratch tile that is scattered onto y. Dropping the structural zeros
// removes exact no-op additions from each element's chain, so the
// result stays bit-identical to the naive scatter.
//
// Within a phase, oy + pad - ky is a multiple of s for every tap, so
// output row yi of the phase grid reads input row cy + yi with
// cy = (oy0 + pad - ky) / s exact (and likewise cx for columns). Each
// lowered row is therefore a shifted contiguous copy of an input row
// with zero edges, like im2col's stride-1 case.
void ConvTranspose2D::forward_gemm(const Tensor& x, Tensor& y, int n, int h,
                                   int w, int oh, int ow) {
  const std::size_t out_hw = static_cast<std::size_t>(oh) * ow;
  const int s = stride_;
  arena_.reset();
  // Int8 path: the phases gather from the quantized input and pack the
  // integer-valued weight snapshots from quantize() (nn/quant.hpp).
  const bool int8 = quantized_ && quant_backend() == QuantBackend::kInt8;
  double xs = 0.0;
  const double* src = int8 ? quantized_input(x, arena_, xs) : x.data();

  // Packed weight panel per (py, px) phase pair, rebuilt every call
  // because weights move between forwards during training.
  for (int py = 0; py < s; ++py)
    for (int px = 0; px < s; ++px) {
      const std::size_t p = static_cast<std::size_t>(py) * s + px;
      const int kdim = phase_kdim(py, px);
      phase_wp_[p] = nullptr;
      if (kdim == 0) continue;
      phase_wp_[p] = arena_.alloc(packed_a_size(cout_, kdim));
      if (int8)
        pack_a(qw_ph_[p].data.data(), kdim, cout_, kdim, phase_wp_[p]);
      else
        pack_phase_weights(py, px, gemm_mr(), phase_wp_[p]);
    }

  // Every phase subgrid of image b gets its compact GEMM.
  for_each_image(n, arena_, [&](int b, util::ScratchArena& scratch) {
    const double* xb = src + static_cast<std::size_t>(b) * cin_ * h * w;
    double* yb = y.data() + static_cast<std::size_t>(b) * cout_ * out_hw;
    for (int py = 0; py < s; ++py)
      for (int px = 0; px < s; ++px) {
        // This phase's output subgrid: rows oy0, oy0+s, ... and columns
        // ox0, ox0+s, ..., the first with (o + pad) % s == phase.
        const int oy0 = ((py - pad_) % s + s) % s;
        const int ox0 = ((px - pad_) % s + s) % s;
        const int ny = oy0 < oh ? (oh - oy0 + s - 1) / s : 0;
        const int nx = ox0 < ow ? (ow - ox0 + s - 1) / s : 0;
        if (ny == 0 || nx == 0) continue;

        const int kdim = phase_kdim(py, px);
        const int nph = ny * nx;
        if (kdim == 0) {
          // No tap reaches this phase (kernel shorter than the
          // stride): those pixels are pure bias.
          for (int oc = 0; oc < cout_; ++oc)
            for (int yi = 0; yi < ny; ++yi) {
              double* yrow = yb + static_cast<std::size_t>(oc) * out_hw +
                             static_cast<std::size_t>(oy0 + yi * s) * ow;
              for (int xi = 0; xi < nx; ++xi)
                yrow[ox0 + xi * s] = b_[static_cast<std::size_t>(oc)];
            }
          continue;
        }

        const int* kys = taps(py);
        const int* kxs = taps(px);
        const int nky = num_taps(py), nkx = num_taps(px);
        const std::size_t panel = static_cast<std::size_t>(kdim) * nph;
        double* col = scratch.alloc(panel);
        double* row = col;
        for (int ic = 0; ic < cin_; ++ic) {
          const double* plane = xb + static_cast<std::size_t>(ic) * h * w;
          for (int jy = 0; jy < nky; ++jy) {
            // Grid rows [ylo, yhi) read input rows cy + yi inside [0, h).
            const int cy = (oy0 + pad_ - kys[jy]) / s;
            const int ylo = std::clamp(-cy, 0, ny);
            const int yhi = std::clamp(h - cy, ylo, ny);
            for (int jx = 0; jx < nkx; ++jx) {
              const int cx = (ox0 + pad_ - kxs[jx]) / s;
              const int xlo = std::clamp(-cx, 0, nx);
              const int xhi = std::clamp(w - cx, xlo, nx);
              std::fill(row, row + static_cast<std::size_t>(ylo) * nx, 0.0);
              for (int yi = ylo; yi < yhi; ++yi) {
                double* dst = row + static_cast<std::size_t>(yi) * nx;
                const double* src =
                    plane + static_cast<std::size_t>(cy + yi) * w;
                std::fill(dst, dst + xlo, 0.0);
                if (xhi > xlo)
                  std::copy(src + cx + xlo, src + cx + xhi, dst + xlo);
                std::fill(dst + xhi, dst + nx, 0.0);
              }
              std::fill(row + static_cast<std::size_t>(yhi) * nx, row + nph,
                        0.0);
              row += static_cast<std::size_t>(nph);
            }
          }
        }

        const std::size_t p = static_cast<std::size_t>(py) * s + px;
        double* tile = scratch.alloc(static_cast<std::size_t>(cout_) * nph);
        for (int oc = 0; oc < cout_; ++oc)
          std::fill_n(tile + static_cast<std::size_t>(oc) * nph, nph,
                      b_[static_cast<std::size_t>(oc)]);
        if (int8) {
          gemm_quantized(cout_, nph, kdim, phase_wp_[p],
                         qw_ph_[p].scales.data(), col, nph, xs, tile, nph,
                         scratch);
        } else {
          gemm_packed(cout_, nph, kdim, phase_wp_[p], col, nph, tile, nph);
        }
        for (int oc = 0; oc < cout_; ++oc) {
          const double* trow = tile + static_cast<std::size_t>(oc) * nph;
          for (int yi = 0; yi < ny; ++yi) {
            double* yrow = yb + static_cast<std::size_t>(oc) * out_hw +
                           static_cast<std::size_t>(oy0 + yi * s) * ow;
            for (int xi = 0; xi < nx; ++xi)
              yrow[ox0 + xi * s] = trow[static_cast<std::size_t>(yi) * nx + xi];
          }
        }
      }
  });
}

// Direct scatter oracle (S2A_NAIVE_CONV=1): the original implementation.
// Each output element starts from its bias and accumulates its addends
// in (ic, iy, ix) order.
void ConvTranspose2D::forward_naive(const Tensor& x, Tensor& y, int n, int h,
                                    int w, int oh, int ow) {
  for (int b = 0; b < n; ++b)
    for (int oc = 0; oc < cout_; ++oc)
      for (int oy = 0; oy < oh; ++oy)
        for (int ox = 0; ox < ow; ++ox)
          y[idx4(b, oc, oy, ox, cout_, oh, ow)] =
              b_[static_cast<std::size_t>(oc)];

  for (int b = 0; b < n; ++b)
    for (int ic = 0; ic < cin_; ++ic)
      for (int iy = 0; iy < h; ++iy)
        for (int ix = 0; ix < w; ++ix) {
          const double v = x[idx4(b, ic, iy, ix, cin_, h, w)];
          if (v == 0.0) continue;
          for (int oc = 0; oc < cout_; ++oc)
            for (int ky = 0; ky < k_; ++ky) {
              const int oy = iy * stride_ + ky - pad_;
              if (oy < 0 || oy >= oh) continue;
              for (int kx = 0; kx < k_; ++kx) {
                const int ox = ix * stride_ + kx - pad_;
                if (ox < 0 || ox >= ow) continue;
                y[idx4(b, oc, oy, ox, cout_, oh, ow)] +=
                    v * w_[idx4(ic, oc, ky, kx, cout_, k_, k_)];
              }
            }
        }
}

Tensor ConvTranspose2D::backward(const Tensor& grad_out) {
  S2A_CHECK(!last_x_.empty());
  const int n = last_x_.dim(0), h = last_x_.dim(2), w = last_x_.dim(3);
  const int oh = out_size(h), ow = out_size(w);
  S2A_CHECK(grad_out.shape().size() == 4 && grad_out.dim(1) == cout_ &&
            grad_out.dim(2) == oh && grad_out.dim(3) == ow);
  // Two reductions (weight and input gradients), each the forward's MACs.
  S2A_TRACE_SCOPE_WORK("nn.deconv_backward", "nn", 2 * macs_per_sample() * n,
                       tensor_bytes({grad_out.numel(), last_x_.numel(),
                                     w_.numel(), gw_.numel(),
                                     last_x_.numel()}));

  // Bias gradient, shared by both backends ((b, oy, ox) order).
  const std::size_t out_hw = static_cast<std::size_t>(oh) * ow;
  for (int b = 0; b < n; ++b)
    for (int oc = 0; oc < cout_; ++oc) {
      const double* g = grad_out.data() +
                        (static_cast<std::size_t>(b) * cout_ + oc) * out_hw;
      double acc = gb_[static_cast<std::size_t>(oc)];
      for (std::size_t i = 0; i < out_hw; ++i) acc += g[i];
      gb_[static_cast<std::size_t>(oc)] = acc;
    }

  Tensor dx({n, cin_, h, w});
  if (conv_backend() == ConvBackend::kNaive)
    backward_naive(grad_out, dx, n, h, w, oh, ow);
  else
    backward_gemm(grad_out, dx, n, h, w, oh, ow);
  return dx;
}

// Direct-loop oracle (S2A_NAIVE_CONV=1): the original gather loops,
// whose per-element chains already match the GEMM lowering — gW
// elements sum g*x over (b; iy, ix) ascending, dx elements sum g*w over
// (oc, ky, kx) ascending.
void ConvTranspose2D::backward_naive(const Tensor& grad_out, Tensor& dx,
                                     int n, int h, int w, int oh, int ow) {
  for (int b = 0; b < n; ++b)
    for (int ic = 0; ic < cin_; ++ic)
      for (int iy = 0; iy < h; ++iy)
        for (int ix = 0; ix < w; ++ix) {
          const double v = last_x_[idx4(b, ic, iy, ix, cin_, h, w)];
          double acc = 0.0;
          for (int oc = 0; oc < cout_; ++oc)
            for (int ky = 0; ky < k_; ++ky) {
              const int oy = iy * stride_ + ky - pad_;
              if (oy < 0 || oy >= oh) continue;
              for (int kx = 0; kx < k_; ++kx) {
                const int ox = ix * stride_ + kx - pad_;
                if (ox < 0 || ox >= ow) continue;
                const double g = grad_out[idx4(b, oc, oy, ox, cout_, oh, ow)];
                acc += g * w_[idx4(ic, oc, ky, kx, cout_, k_, k_)];
                gw_[idx4(ic, oc, ky, kx, cout_, k_, k_)] += g * v;
              }
            }
          dx[idx4(b, ic, iy, ix, cin_, h, w)] = acc;
        }
}

// GEMM backward. The deconv's backward-input pass is a *plain* strided
// convolution of grad_out with the un-flipped kernel (W viewed as
// [cin, cout*k*k]): the forward's scatter oy = iy*s + ky - pad becomes
// a gather with the stride folded into the im2col addressing, so no
// phase decomposition is needed — unlike the forward there are no
// structural zeros to skip. Per image:
//   gW += X_b x im2col(G_b)ᵀ   (reduction over input pixels, ascending)
//   dx_b = W x im2col(G_b)      (dx is zero-init, so each element's
//                                chain starts from 0 like the oracle's)
// Every chain matches backward_naive's, so the backends are
// bit-identical.
void ConvTranspose2D::backward_gemm(const Tensor& grad_out, Tensor& dx,
                                    int n, int h, int w, int oh, int ow) {
  const int kdim = im2col_rows(cout_, k_);
  const std::size_t out_hw = static_cast<std::size_t>(oh) * ow;
  const int in_hw = h * w;
  const std::size_t panel = static_cast<std::size_t>(kdim) * in_hw;
  arena_.reset();
  // w_ is [Cin, Cout, k, k] row-major — already the [cin, kdim] A matrix
  // of the adjoint convolution; no transpose needed.
  double* wp = arena_.alloc(packed_a_size(cin_, kdim));
  pack_a(w_.data(), kdim, cin_, kdim, wp);
  double* colt = arena_.alloc(panel);
  double* xpk = arena_.alloc(packed_a_size(cin_, in_hw));
  double* col = arena_.alloc(panel);

  for (int b = 0; b < n; ++b) {
    const double* gb =
        grad_out.data() + static_cast<std::size_t>(b) * cout_ * out_hw;
    const double* xb =
        last_x_.data() + static_cast<std::size_t>(b) * cin_ * in_hw;
    double* dxb = dx.data() + static_cast<std::size_t>(b) * cin_ * in_hw;

    // im2col(G_b)ᵀ over the adjoint-conv geometry: its "output" pixels
    // are the deconv's input pixels.
    im2col_t(gb, cout_, oh, ow, k_, stride_, pad_, colt);
    pack_a(xb, in_hw, cin_, in_hw, xpk);
    gemm_packed(cin_, kdim, in_hw, xpk, colt, kdim, gw_.data(), kdim);

    im2col(gb, cout_, oh, ow, k_, stride_, pad_, col);
    gemm_packed(cin_, in_hw, kdim, wp, col, in_hw, dxb, in_hw);
  }
}

void ConvTranspose2D::quantize() {
  // Snapshot the same dense per-phase [Cout, kdim] matrices
  // forward_gemm packs each call, one QuantizedMatrix per (py, px)
  // phase.
  const int s = stride_;
  qw_ph_.assign(static_cast<std::size_t>(s) * s, QuantizedMatrix{});
  std::vector<double> wph;
  for (int py = 0; py < s; ++py)
    for (int px = 0; px < s; ++px) {
      const int kdim = phase_kdim(py, px);
      if (kdim == 0) continue;
      wph.resize(static_cast<std::size_t>(cout_) * kdim);
      pack_phase_weights(py, px, 1, wph.data());
      qw_ph_[static_cast<std::size_t>(py) * s + px] =
          quantize_rows(wph.data(), kdim, cout_, kdim);
    }
  quantized_ = true;
}

std::size_t ConvTranspose2D::macs_per_sample() const {
  return static_cast<std::size_t>(cin_) * cout_ * k_ * k_ * last_in_hw_;
}

}  // namespace s2a::nn
