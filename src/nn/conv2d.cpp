#include "nn/conv2d.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>

#include "nn/gemm.hpp"
#include "nn/im2col.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace s2a::nn {

namespace {

std::atomic<ConvBackend> g_backend{ConvBackend::kAuto};

// Forward passes below this many MACs run inline: pool dispatch would
// cost more than the convolution itself.
constexpr std::size_t kMinParallelMacs = 1 << 15;

// Splits `total` units of independent work into chunks sized for the
// global pool (~4 chunks per slot hides worker imbalance) and runs
// fn(lo, hi, band_arena) over them, giving each chunk a private
// ScratchArena slot for its im2col panel. Falls back to one inline call
// (slot 0) when the work is too small or effective_parallelism() says
// sharding cannot win — e.g. an S2A_THREADS override on a 1-core box.
// fn must write disjoint outputs per unit so results are bit-exact at
// every thread count.
void parallel_bands(
    std::size_t total, std::size_t macs, util::ScratchArena& arena,
    const std::function<void(std::size_t, std::size_t, util::ScratchArena&)>&
        fn) {
  util::ThreadPool& pool = util::global_pool();
  if (util::effective_parallelism() <= 1 || macs < kMinParallelMacs ||
      total <= 1) {
    arena.ensure_slots(1);
    fn(0, total, arena.slot(0));
    return;
  }
  const std::size_t grain = std::max<std::size_t>(
      1, total / (static_cast<std::size_t>(pool.size()) * 4));
  const std::size_t chunks = util::ThreadPool::num_chunks(0, total, grain);
  arena.ensure_slots(chunks);
  pool.parallel_for_chunks(0, total, grain,
                           [&fn, &arena](std::size_t lo, std::size_t hi,
                                         std::size_t c) {
                             fn(lo, hi, arena.slot(c));
                           });
}

// Row-sharded variant without arena slots, for the naive oracle loops.
void parallel_rows(std::size_t total, std::size_t macs,
                   const std::function<void(std::size_t, std::size_t)>& fn) {
  util::ThreadPool& pool = util::global_pool();
  if (util::effective_parallelism() <= 1 || macs < kMinParallelMacs ||
      total <= 1) {
    fn(0, total);
    return;
  }
  const std::size_t grain = std::max<std::size_t>(
      1, total / (static_cast<std::size_t>(pool.size()) * 4));
  pool.parallel_for_chunks(
      0, total, grain,
      [&fn](std::size_t lo, std::size_t hi, std::size_t) { fn(lo, hi); });
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

// im2col + blocked-GEMM path. The band space is the flattened
// (image, output-row) grid — one parallel pass covers the whole batch,
// so a batched forward (nn/batch.hpp, the fleet's cross-loop inference
// path) shards across the batch axis instead of serializing per image.
// Each band of output rows lowers its input patches into a private
// column panel (band arena) and multiplies the packed weight panel —
// packed ONCE per call, covering every image — against it, writing the
// band's slice of y directly. Bands are disjoint in y and the GEMM
// accumulates every element in ascending (ic, ky, kx) order — the naive
// loop's order — so this is bit-exact vs. forward_naive, across thread
// counts, and across batch compositions (the band split only changes
// which elements go together).
void Conv2D::forward_gemm(const Tensor& x, Tensor& y, int n, int h, int w,
                          int oh, int ow) {
  const int kdim = im2col_rows(cin_, k_);
  const std::size_t out_hw = static_cast<std::size_t>(oh) * ow;
  arena_.reset();
  // Int8 path (quantize() + S2A_QUANT=1): same lowering, but each band's
  // column panel is quantized against ONE per-tensor activation scale —
  // computed over the whole input, so the band split cannot change the
  // quantization grid — and multiplied by the int8 weight snapshot.
  // Integer accumulation is order-exact, so this path is deterministic
  // across thread counts too.
  const bool int8 = quantized_ && quant_backend() == QuantBackend::kInt8;
  const double xs = int8 ? activation_scale(x.data(), x.numel()) : 0.0;
  double* wp = nullptr;
  if (!int8) {
    // Weights move between forwards during training, so repack per call —
    // O(cout*cin*k^2), noise next to the GEMM itself.
    wp = arena_.alloc(packed_a_size(cout_, kdim));
    pack_a(w_.data(), kdim, cout_, kdim, wp);
  }

  const std::size_t macs = static_cast<std::size_t>(cout_) * kdim *
                           static_cast<std::size_t>(n) * out_hw;
  parallel_bands(
      static_cast<std::size_t>(n) * oh, macs, arena_,
      [&](std::size_t lo, std::size_t hi, util::ScratchArena& band_arena) {
        band_arena.reset();
        // A chunk may span image boundaries; split it at each one so the
        // im2col/GEMM below always sees rows of a single image.
        for (std::size_t u = lo; u < hi;) {
          const int b = static_cast<int>(u / static_cast<std::size_t>(oh));
          const int oy_lo = static_cast<int>(u % static_cast<std::size_t>(oh));
          const int oy_hi = static_cast<int>(
              std::min<std::size_t>(static_cast<std::size_t>(oh),
                                    static_cast<std::size_t>(oy_lo) + (hi - u)));
          const double* xb =
              x.data() + static_cast<std::size_t>(b) * cin_ * h * w;
          double* yb = y.data() + static_cast<std::size_t>(b) * cout_ * out_hw;
          const int width = (oy_hi - oy_lo) * ow;
          double* col =
              band_arena.alloc(static_cast<std::size_t>(kdim) * width);
          im2col(xb, cin_, h, w, k_, stride_, pad_, ow, oy_lo, oy_hi, col);
          double* cband = yb + static_cast<std::size_t>(oy_lo) * ow;
          for (int oc = 0; oc < cout_; ++oc)
            std::fill_n(cband + static_cast<std::size_t>(oc) * out_hw, width,
                        b_[static_cast<std::size_t>(oc)]);
          if (int8) {
            const std::size_t count = static_cast<std::size_t>(kdim) * width;
            std::int8_t* colq = alloc_int8(band_arena, count);
            quantize_values(col, count, xs, colq);
            gemm_int8(qw_, width, colq, width, xs, cband,
                      static_cast<int>(out_hw));
          } else {
            gemm_packed(cout_, width, kdim, wp, col, width, cband,
                        static_cast<int>(out_hw));
          }
          u += static_cast<std::size_t>(oy_hi - oy_lo);
        }
      });
}

// Direct-loop oracle (S2A_NAIVE_CONV=1): the original implementation,
// kept verbatim so the kernel equivalence tests have a fixed reference.
void Conv2D::forward_naive(const Tensor& x, Tensor& y, int n, int h, int w,
                           int oh, int ow) {
  // Rows (b, oc, oy) are independent — each output element is produced by
  // exactly one row, with a fixed inner summation order, so the sharded
  // and serial passes are bit-identical.
  const std::size_t total_rows = static_cast<std::size_t>(n) * cout_ * oh;
  const std::size_t macs = static_cast<std::size_t>(cout_) * cin_ * k_ * k_ *
                           static_cast<std::size_t>(n) * oh * ow;
  parallel_rows(total_rows, macs, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t row = lo; row < hi; ++row) {
      const int oy = static_cast<int>(row % static_cast<std::size_t>(oh));
      const int oc = static_cast<int>((row / static_cast<std::size_t>(oh)) %
                                      static_cast<std::size_t>(cout_));
      const int b = static_cast<int>(row / static_cast<std::size_t>(oh) /
                                     static_cast<std::size_t>(cout_));
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
  });
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
// Sharding keeps every gradient element's complete reduction chain
// inside one task — im2col_t bands write disjoint rows, the gW/dcol
// GEMMs are striped over *columns* (never over the reduction axis), and
// col2im_band splits by input row — so results are bit-identical to
// backward_naive at every thread count.
void Conv2D::backward_gemm(const Tensor& grad_out, Tensor& dx, int n, int h,
                           int w, int oh, int ow) {
  const int kdim = im2col_rows(cin_, k_);
  const std::size_t out_hw = static_cast<std::size_t>(oh) * ow;
  const std::size_t in_hw = static_cast<std::size_t>(h) * w;
  arena_.reset();
  // Root allocations happen on the calling thread before any parallel
  // section; tasks only read them (or write disjoint slices).
  double* wt = arena_.alloc(static_cast<std::size_t>(kdim) * cout_);
  transpose(w_.data(), cout_, kdim, wt);
  double* wtp = arena_.alloc(packed_a_size(kdim, cout_));
  pack_a(wt, cout_, kdim, cout_, wtp);
  double* colt = arena_.alloc(out_hw * static_cast<std::size_t>(kdim));
  double* gpk = arena_.alloc(packed_a_size(cout_, static_cast<int>(out_hw)));
  double* dcol = arena_.alloc(static_cast<std::size_t>(kdim) * out_hw);

  const std::size_t macs = static_cast<std::size_t>(cout_) * kdim *
                           static_cast<std::size_t>(n) * out_hw;
  for (int b = 0; b < n; ++b) {
    const double* gb =
        grad_out.data() + static_cast<std::size_t>(b) * cout_ * out_hw;
    const double* xb =
        last_x_.data() + static_cast<std::size_t>(b) * cin_ * in_hw;
    double* dxb = dx.data() + static_cast<std::size_t>(b) * cin_ * in_hw;

    // im2col(x_b)ᵀ: bands of output rows write disjoint row ranges.
    parallel_rows(static_cast<std::size_t>(oh), macs,
                  [&](std::size_t lo, std::size_t hi) {
                    im2col_t(xb, cin_, h, w, k_, stride_, pad_, ow,
                             static_cast<int>(lo), static_cast<int>(hi),
                             colt + lo * ow * kdim);
                  });

    // gW += G_b x colt, striped over gW columns: each element's whole
    // per-image reduction (ascending output pixels) runs in one stripe.
    pack_a(gb, static_cast<int>(out_hw), cout_, static_cast<int>(out_hw),
           gpk);
    parallel_rows(static_cast<std::size_t>(kdim), macs,
                  [&](std::size_t lo, std::size_t hi) {
                    gemm_packed(cout_, static_cast<int>(hi - lo),
                                static_cast<int>(out_hw), gpk, colt + lo,
                                kdim, gw_.data() + lo, kdim);
                  });

    // dcol = Wᵀ x G_b, striped over output pixels (zero-init per stripe
    // so each element's oc-reduction starts from 0 like the oracle's t).
    parallel_rows(out_hw, macs, [&](std::size_t lo, std::size_t hi) {
      for (int r = 0; r < kdim; ++r)
        std::fill_n(dcol + static_cast<std::size_t>(r) * out_hw + lo, hi - lo,
                    0.0);
      gemm_packed(kdim, static_cast<int>(hi - lo), cout_, wtp, gb + lo,
                  static_cast<int>(out_hw), dcol + lo,
                  static_cast<int>(out_hw));
    });

    // Fold dcol onto dx_b, banded over input rows: each dx element gets
    // all of its (ky, kx) addends inside one band.
    parallel_rows(static_cast<std::size_t>(h), macs,
                  [&](std::size_t lo, std::size_t hi) {
                    col2im_band(dcol, cin_, h, w, k_, stride_, pad_, ow,
                                static_cast<int>(lo), static_cast<int>(hi),
                                dxb);
                  });
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
  // Int8 path: the per-phase weight matrices were snapshotted by
  // quantize(); each phase's column panel is quantized against the one
  // whole-input activation scale (band-invariant) before its compact
  // int8 GEMM.
  const bool int8 = quantized_ && quant_backend() == QuantBackend::kInt8;
  const double xs = int8 ? activation_scale(x.data(), x.numel()) : 0.0;

  // Packed weight panel per (py, px) phase pair, rebuilt every call
  // because weights move between forwards during training.
  if (!int8)
    for (int py = 0; py < s; ++py)
      for (int px = 0; px < s; ++px) {
        double*& wp = phase_wp_[static_cast<std::size_t>(py) * s + px];
        const int kdim = phase_kdim(py, px);
        wp = nullptr;
        if (kdim == 0) continue;
        wp = arena_.alloc(packed_a_size(cout_, kdim));
        pack_phase_weights(py, px, gemm_mr(), wp);
      }

  // One band of one image: every phase subgrid intersecting output rows
  // [oy_lo, oy_hi) of image b gets its compact GEMM. Extracted so the
  // cross-image band pass below can split a chunk at image boundaries.
  const auto run_band = [&](int b, int oy_lo, int oy_hi,
                            util::ScratchArena& band_arena) {
    const double* xb = x.data() + static_cast<std::size_t>(b) * cin_ * h * w;
    double* yb = y.data() + static_cast<std::size_t>(b) * cout_ * out_hw;
    for (int py = 0; py < s; ++py)
      for (int px = 0; px < s; ++px) {
        // This phase's output subgrid within the band: rows
        // oy0, oy0+s, ... and columns ox0, ox0+s, ...
        int oy0 = oy_lo;
        while (oy0 < oy_hi && (oy0 + pad_) % s != py) ++oy0;
        const int ny = oy0 < oy_hi ? (oy_hi - oy0 + s - 1) / s : 0;
        const int ox0_raw = (px - pad_) % s;
        const int ox0 = ox0_raw < 0 ? ox0_raw + s : ox0_raw;
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
        double* col = band_arena.alloc(static_cast<std::size_t>(kdim) * nph);
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

        double* tile = band_arena.alloc(static_cast<std::size_t>(cout_) * nph);
        for (int oc = 0; oc < cout_; ++oc)
          std::fill_n(tile + static_cast<std::size_t>(oc) * nph, nph,
                      b_[static_cast<std::size_t>(oc)]);
        if (int8) {
          const std::size_t count = static_cast<std::size_t>(kdim) * nph;
          std::int8_t* colq = alloc_int8(band_arena, count);
          quantize_values(col, count, xs, colq);
          gemm_int8(qw_ph_[static_cast<std::size_t>(py) * s + px], nph, colq,
                    nph, xs, tile, nph);
        } else {
          gemm_packed(cout_, nph, kdim,
                      phase_wp_[static_cast<std::size_t>(py) * s + px], col,
                      nph, tile, nph);
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
  };

  // Band space is the flattened (image, output-row) grid, so a batched
  // forward shards across the batch axis in one pass (see
  // Conv2D::forward_gemm for the bit-exactness argument).
  const std::size_t macs = static_cast<std::size_t>(cin_) * cout_ * k_ * k_ *
                           static_cast<std::size_t>(n) * h * w;
  parallel_bands(
      static_cast<std::size_t>(n) * oh, macs, arena_,
      [&](std::size_t lo, std::size_t hi, util::ScratchArena& band_arena) {
        band_arena.reset();
        for (std::size_t u = lo; u < hi;) {
          const int b = static_cast<int>(u / static_cast<std::size_t>(oh));
          const int oy_lo = static_cast<int>(u % static_cast<std::size_t>(oh));
          const int oy_hi = static_cast<int>(
              std::min<std::size_t>(static_cast<std::size_t>(oh),
                                    static_cast<std::size_t>(oy_lo) + (hi - u)));
          run_band(b, oy_lo, oy_hi, band_arena);
          u += static_cast<std::size_t>(oy_hi - oy_lo);
        }
      });
}

// Direct scatter oracle (S2A_NAIVE_CONV=1): the original implementation.
void ConvTranspose2D::forward_naive(const Tensor& x, Tensor& y, int n, int h,
                                    int w, int oh, int ow) {
  // Sharded over bands of output rows: each band scatters only from the
  // input rows that can reach it (iy such that iy*stride + ky - pad lands
  // in [lo, hi)) and skips contributions outside its band, so every
  // output element is written by exactly one task with the same
  // accumulation order (b, ic, iy, ix) as a serial pass.
  const std::size_t macs = static_cast<std::size_t>(cin_) * cout_ * k_ * k_ *
                           static_cast<std::size_t>(n) * h * w;
  parallel_rows(
      static_cast<std::size_t>(oh), macs,
      [&](std::size_t band_lo, std::size_t band_hi) {
        const int lo = static_cast<int>(band_lo);
        const int hi = static_cast<int>(band_hi);
        for (int b = 0; b < n; ++b)
          for (int oc = 0; oc < cout_; ++oc)
            for (int oy = lo; oy < hi; ++oy)
              for (int ox = 0; ox < ow; ++ox)
                y[idx4(b, oc, oy, ox, cout_, oh, ow)] =
                    b_[static_cast<std::size_t>(oc)];

        const int lo_num = lo + pad_ - (k_ - 1);
        const int iy_lo = lo_num > 0 ? (lo_num + stride_ - 1) / stride_ : 0;
        const int iy_hi = std::min(h - 1, (hi - 1 + pad_) / stride_);
        for (int b = 0; b < n; ++b)
          for (int ic = 0; ic < cin_; ++ic)
            for (int iy = iy_lo; iy <= iy_hi; ++iy)
              for (int ix = 0; ix < w; ++ix) {
                const double v = x[idx4(b, ic, iy, ix, cin_, h, w)];
                if (v == 0.0) continue;
                for (int oc = 0; oc < cout_; ++oc)
                  for (int ky = 0; ky < k_; ++ky) {
                    const int oy = iy * stride_ + ky - pad_;
                    if (oy < lo || oy >= hi) continue;
                    for (int kx = 0; kx < k_; ++kx) {
                      const int ox = ix * stride_ + kx - pad_;
                      if (ox < 0 || ox >= ow) continue;
                      y[idx4(b, oc, oy, ox, cout_, oh, ow)] +=
                          v * w_[idx4(ic, oc, ky, kx, cout_, k_, k_)];
                    }
                  }
              }
      });
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
//   dx_b = W x im2col(G_b)      (banded over input rows, like a forward)
// Same sharding rules as Conv2D::backward_gemm, so bit-identical to the
// oracle at every thread count.
void ConvTranspose2D::backward_gemm(const Tensor& grad_out, Tensor& dx,
                                    int n, int h, int w, int oh, int ow) {
  const int kdim = im2col_rows(cout_, k_);
  const std::size_t out_hw = static_cast<std::size_t>(oh) * ow;
  const std::size_t in_hw = static_cast<std::size_t>(h) * w;
  arena_.reset();
  // w_ is [Cin, Cout, k, k] row-major — already the [cin, kdim] A matrix
  // of the adjoint convolution; no transpose needed.
  double* wp = arena_.alloc(packed_a_size(cin_, kdim));
  pack_a(w_.data(), kdim, cin_, kdim, wp);
  double* colt = arena_.alloc(in_hw * static_cast<std::size_t>(kdim));
  double* xpk = arena_.alloc(packed_a_size(cin_, static_cast<int>(in_hw)));

  const std::size_t macs = static_cast<std::size_t>(cin_) * kdim *
                           static_cast<std::size_t>(n) * in_hw;
  for (int b = 0; b < n; ++b) {
    const double* gb =
        grad_out.data() + static_cast<std::size_t>(b) * cout_ * out_hw;
    const double* xb =
        last_x_.data() + static_cast<std::size_t>(b) * cin_ * in_hw;
    double* dxb = dx.data() + static_cast<std::size_t>(b) * cin_ * in_hw;

    // im2col(G_b)ᵀ over the adjoint-conv geometry: its "output" pixels
    // are the deconv's input pixels, so bands split input rows.
    parallel_rows(static_cast<std::size_t>(h), macs,
                  [&](std::size_t lo, std::size_t hi) {
                    im2col_t(gb, cout_, oh, ow, k_, stride_, pad_, w,
                             static_cast<int>(lo), static_cast<int>(hi),
                             colt + lo * w * kdim);
                  });

    // gW += X_b x colt, striped over gW columns.
    pack_a(xb, static_cast<int>(in_hw), cin_, static_cast<int>(in_hw), xpk);
    parallel_rows(static_cast<std::size_t>(kdim), macs,
                  [&](std::size_t lo, std::size_t hi) {
                    gemm_packed(cin_, static_cast<int>(hi - lo),
                                static_cast<int>(in_hw), xpk, colt + lo,
                                kdim, gw_.data() + lo, kdim);
                  });

    // dx_b = W x im2col(G_b), banded over input rows with per-band
    // column panels (mirrors Conv2D::forward_gemm; dx is zero-init so
    // each element's chain starts from 0 like the oracle's acc).
    parallel_bands(
        static_cast<std::size_t>(h), macs, arena_,
        [&](std::size_t lo, std::size_t hi, util::ScratchArena& band_arena) {
          const int iy_lo = static_cast<int>(lo), iy_hi = static_cast<int>(hi);
          const int width = (iy_hi - iy_lo) * w;
          band_arena.reset();
          double* col =
              band_arena.alloc(static_cast<std::size_t>(kdim) * width);
          im2col(gb, cout_, oh, ow, k_, stride_, pad_, w, iy_lo, iy_hi, col);
          gemm_packed(cin_, width, kdim, wp, col, width,
                      dxb + static_cast<std::size_t>(iy_lo) * w,
                      static_cast<int>(in_hw));
        });
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
