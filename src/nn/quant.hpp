// Int8 quantized inference path for the forward-only hot loops.
//
// Scheme: per-output-row symmetric weight scales (scale_i =
// max|row_i| / 127, so every weight maps to [-127, 127] with zero
// exactly representable) and one per-tensor symmetric activation scale.
//
// The quantized operands are stored as integer-valued doubles and
// multiplied by the float path's own gemm_packed into a zeroed tile.
// That product is exact: each term is at most 127 * 127 = 16129, so
// every partial sum is an integer below 2^53 for any k < 2^53 / 16129
// (~5.6e11; the conv/dense reduction depths here are k <= 144). Each
// rounded `acc += a*b` step — fused or not — therefore returns the exact
// integer, and the tile equals the int32 sum of an integer kernel bit
// for bit, under every S2A_SIMD kernel family and at every thread count.
// The tile is dequantized in one step, `c[i][j] += scales[i] * x_scale
// * acc`, on top of the caller's bias-seeded C, mirroring the float
// GEMM's contract. detail::gemm_int8_scalar keeps the int32 formulation
// as the oracle the layer tests diff against.
//
// A NaN activation stays NaN through quantization (it is not clamped to
// a finite code), so a non-finite input reaches the int8 outputs exactly
// where it reaches the float outputs, and the loop's finiteness guards
// see it.
//
// Routing: quant_backend() resolves the process-wide setting; kAuto
// re-reads S2A_QUANT=1 per call (same pattern as ConvBackend /
// S2A_NAIVE_CONV) so tests and CLI runs can flip it without rebuilds.
// The quantized forward is inference-only — backward always runs the
// float path, and training steps see float weights.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/scratch_arena.hpp"

namespace s2a::nn {

/// Whether quantize()d layers run their int8 forward. kAuto defers to
/// the S2A_QUANT environment variable (=1 enables int8), re-read per
/// call.
enum class QuantBackend { kAuto, kFloat, kInt8 };

void set_quant_backend(QuantBackend backend);
/// The resolved backend (never kAuto).
QuantBackend quant_backend();

/// A row-major matrix of int8 codes (held as integer-valued doubles in
/// [-127, 127]) with one symmetric scale per row. For a conv/dense
/// weight this is [out_channels, reduction], so the per-row scale is the
/// per-output-channel scale.
struct QuantizedMatrix {
  int rows = 0;
  int cols = 0;
  std::vector<double> data;    // row-major [rows, cols]
  std::vector<double> scales;  // scales[i] dequantizes row i
};

/// Quantizes row-major a ([rows, cols], row stride lda) with per-row
/// symmetric scales. An all-zero row gets scale 1 (quantizes to zeros).
QuantizedMatrix quantize_rows(const double* a, int lda, int rows, int cols);

/// Per-tensor symmetric scale: max|x| / 127 (NaN is skipped; 1 when the
/// tensor is all zero). Computed over the WHOLE tensor so the
/// quantization grid does not depend on how the caller splits its work.
double activation_scale(const double* x, std::size_t n);

/// In place: x[i] = clamp(round(x[i] / scale), -127, 127), rounding half
/// away from zero. NaN stays NaN.
void quantize_values(double* x, std::size_t n, double scale);

/// C += diag(a_scales) * (A_q * B_q) * b_scale. A_q: [m, k] codes packed
/// by pack_a; B_q: row-major [k, n] codes with row stride ldb; C:
/// row-major [m, n] with row stride ldc, pre-initialized (bias-seeded).
/// The integer product is taken by gemm_packed into an [m, n] tile from
/// `arena` (exact — see above), then dequantized onto C.
void gemm_quantized(int m, int n, int k, const double* a_packed,
                    const double* a_scales, const double* b, int ldb,
                    double b_scale, double* c, int ldc,
                    util::ScratchArena& arena);

namespace detail {

/// Reference int8 GEMM with int32 accumulation: the oracle
/// gemm_quantized is diffed against.
void gemm_int8_scalar(int m, int n, int k, const std::int8_t* a,
                      const double* a_scales, const std::int8_t* b, int ldb,
                      double b_scale, double* c, int ldc);

}  // namespace detail

}  // namespace s2a::nn
