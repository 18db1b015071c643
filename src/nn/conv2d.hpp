// 2-D convolution and transposed convolution over NCHW tensors.
//
// These back the BEV detector backbones (lidar), the occupancy decoder's
// upsampling stages, and the optical-flow networks (neuro).
//
// Forward AND backward passes run as im2col + cache-blocked GEMM
// (nn/im2col.hpp, nn/gemm.hpp) with per-layer ScratchArena workspaces —
// several times faster than the original direct loops on the occupancy
// autoencoder shapes — and stay bit-exact against those loops because
// the lowered matrix rows follow the naive accumulation order (see
// docs/ARCHITECTURE.md, "Kernels & memory"). Weight gradients lower to
// grad_out x im2col(input)ᵀ, input gradients to Wᵀ x grad_out folded by
// col2im (Conv2D) or to a plain strided convolution of grad_out by the
// adjoint kernel (ConvTranspose2D). The direct loops are retained as
// the oracle: set S2A_NAIVE_CONV=1 (or
// set_conv_backend(ConvBackend::kNaive)) to run them instead; the
// kernel equivalence tests diff the two paths bit-for-bit and the
// finite-difference gradient checks pin the arithmetic of both.
#pragma once

#include <vector>

#include "nn/layer.hpp"
#include "nn/quant.hpp"
#include "util/scratch_arena.hpp"

namespace s2a::nn {

/// Which implementation the conv/dense layers use (forward and backward).
///  kAuto  — S2A_NAIVE_CONV=1 selects the naive loops, else GEMM.
///  kGemm  — im2col + blocked GEMM (the default resolution).
///  kNaive — direct loops in the GEMM chain order (the bit-exactness
///           oracle).
enum class ConvBackend { kAuto, kGemm, kNaive };

/// Process-wide override, primarily for tests and benches; kAuto (the
/// initial state) defers to the S2A_NAIVE_CONV environment variable,
/// which is re-read on every forward/backward so setenv mid-process
/// works.
void set_conv_backend(ConvBackend backend);
/// The backend the next forward/backward will take: kGemm or kNaive,
/// never kAuto.
ConvBackend conv_backend();

class Conv2D : public Layer {
 public:
  Conv2D(int in_channels, int out_channels, int kernel, int stride,
         int padding, Rng& rng);

  Tensor forward(const Tensor& x) override;  ///< x: [N, Cin, H, W]
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&gw_, &gb_}; }
  std::size_t macs_per_sample() const override;
  void quantize() override;
  bool is_quantized() const override { return quantized_; }

  int out_size(int in_size) const {
    return (in_size + 2 * pad_ - k_) / stride_ + 1;
  }
  int in_channels() const { return cin_; }
  int out_channels() const { return cout_; }
  int kernel() const { return k_; }
  const util::ScratchArena* scratch() const override { return &arena_; }

 private:
  void forward_naive(const Tensor& x, Tensor& y, int n, int h, int w, int oh,
                     int ow);
  void forward_gemm(const Tensor& x, Tensor& y, int n, int h, int w, int oh,
                    int ow);
  void backward_naive(const Tensor& grad_out, Tensor& dx, int n, int h, int w,
                      int oh, int ow);
  void backward_gemm(const Tensor& grad_out, Tensor& dx, int n, int h, int w,
                     int oh, int ow);

  int cin_, cout_, k_, stride_, pad_;
  bool quantized_ = false;
  QuantizedMatrix qw_;  // int8 snapshot of w_ as [Cout, Cin*k*k]
  Tensor w_, b_, gw_, gb_;  // w: [Cout, Cin, k, k]
  Tensor last_x_;
  mutable std::size_t last_out_hw_ = 0;  // set by forward, used by macs
  // im2col panels + packed weights; sized on first forward, reused after.
  util::ScratchArena arena_;
};

/// Transposed convolution (a.k.a. deconvolution) for decoder upsampling.
/// Output spatial size: (in-1)*stride - 2*pad + kernel.
class ConvTranspose2D : public Layer {
 public:
  ConvTranspose2D(int in_channels, int out_channels, int kernel, int stride,
                  int padding, Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&gw_, &gb_}; }
  std::size_t macs_per_sample() const override;
  void quantize() override;
  bool is_quantized() const override { return quantized_; }

  int out_size(int in_size) const {
    return (in_size - 1) * stride_ - 2 * pad_ + k_;
  }
  const util::ScratchArena* scratch() const override { return &arena_; }

 private:
  void forward_naive(const Tensor& x, Tensor& y, int n, int h, int w, int oh,
                     int ow);
  void forward_gemm(const Tensor& x, Tensor& y, int n, int h, int w, int oh,
                    int ow);
  void backward_naive(const Tensor& grad_out, Tensor& dx, int n, int h, int w,
                      int oh, int ow);
  void backward_gemm(const Tensor& grad_out, Tensor& dx, int n, int h, int w,
                     int oh, int ow);
  // Sub-pixel phase p's taps: kernel offsets t with t % stride == p,
  // descending, so ascending list order is ascending source row.
  const int* taps(int p) const {
    return taps_.data() + tap_begin_[static_cast<std::size_t>(p)];
  }
  int num_taps(int p) const {
    return tap_begin_[static_cast<std::size_t>(p) + 1] -
           tap_begin_[static_cast<std::size_t>(p)];
  }
  int phase_kdim(int py, int px) const;
  void pack_phase_weights(int py, int px, int mr, double* out) const;

  int cin_, cout_, k_, stride_, pad_;
  // Phase tap tables, fixed by k_ and stride_ at construction: phase p
  // owns taps_[tap_begin_[p], tap_begin_[p + 1]).
  std::vector<int> taps_, tap_begin_;
  // This forward's packed weight panel per (py, px) phase, in arena_.
  std::vector<double*> phase_wp_;
  bool quantized_ = false;
  // One int8 weight snapshot per (py, px) sub-pixel phase — the same
  // dense [Cout, kdim] matrices forward_gemm packs per call, built
  // once at quantize() time. Indexed py * stride + px.
  std::vector<QuantizedMatrix> qw_ph_;
  Tensor w_, b_, gw_, gb_;  // w: [Cin, Cout, k, k]
  Tensor last_x_;
  mutable std::size_t last_in_hw_ = 0;
  util::ScratchArena arena_;
};

}  // namespace s2a::nn
