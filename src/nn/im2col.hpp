// Patch lowering for the conv/deconv GEMM path.
//
// im2col turns a convolution into a dense matrix product: column j of
// the lowered matrix holds every input tap that output pixel j reads,
// and row r walks the kernel taps in the order (in-channel, ky, kx) —
// the *same* order the naive Conv2D loops accumulate in, so
// W[cout, cin*k*k] x col[cin*k*k, oh*ow] reproduces the naive forward
// bit-for-bit (out-of-bounds taps become 0.0, which is an exact no-op
// on the accumulation chain). See docs/ARCHITECTURE.md.
//
// The transposed convolution uses the same idea with the kernel flipped
// and the taps phase-split by stride; that lowering is specialised
// enough (dense per-phase tap lists, compact output tiles) that it
// lives with its only caller in conv2d.cpp rather than here.
#pragma once

namespace s2a::nn {

/// Lowered-matrix row count for a (cin, k) convolution.
inline int im2col_rows(int cin, int k) { return cin * k * k; }

/// Output size of a direct convolution along one axis.
inline int conv_out_size(int in, int k, int stride, int pad) {
  return (in + 2 * pad - k) / stride + 1;
}

/// Writes the im2col matrix of a direct convolution over x (one image,
/// [cin, h, w] row-major): col is [cin*k*k, oh*ow] row-major, with
/// oh/ow from conv_out_size.
void im2col(const double* x, int cin, int h, int w, int k, int stride,
            int pad, double* col);

/// Adjoint of im2col: scatters col (layout as above) back onto x,
/// *accumulating* into it — each input pixel receives one addend per
/// output pixel that reads it, in (ic, ky, kx) order. col2im(im2col(x))
/// therefore multiplies every pixel by its read count; the kernel tests
/// rely on that identity, and Conv2D's backward folds its input-gradient
/// columns with it.
void col2im(const double* col, int cin, int h, int w, int k, int stride,
            int pad, double* x);

/// Transposed im2col for the weight-gradient GEMMs: row j is output
/// pixel j's taps in (ic, ky, kx) order, so colt is [oh*ow, cin*k*k]
/// row-major. Used as the B operand of gW += grad_out × im2col(x)ᵀ,
/// whose reduction then runs over output pixels in ascending (oy, ox)
/// order — the naive accumulation order.
void im2col_t(const double* x, int cin, int h, int w, int k, int stride,
              int pad, double* colt);

}  // namespace s2a::nn
