#include "nn/quant.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>

#include "nn/gemm.hpp"
#include "util/check.hpp"

namespace s2a::nn {

namespace {

std::atomic<QuantBackend> g_quant{QuantBackend::kAuto};

// Rounds half away from zero. std::round keeps NaN (std::lround's result
// for NaN is unspecified: a clamped -127 on x86-64), and both clamp
// comparisons are false for NaN, so it passes through.
double quantize_one(double x, double inv_scale) {
  const double q = std::round(x * inv_scale);
  if (q > 127.0) return 127.0;
  if (q < -127.0) return -127.0;
  return q;
}

}  // namespace

void set_quant_backend(QuantBackend backend) {
  g_quant.store(backend, std::memory_order_relaxed);
}

QuantBackend quant_backend() {
  const QuantBackend b = g_quant.load(std::memory_order_relaxed);
  if (b != QuantBackend::kAuto) return b;
  const char* env = std::getenv("S2A_QUANT");
  return (env != nullptr && env[0] == '1') ? QuantBackend::kInt8
                                           : QuantBackend::kFloat;
}

QuantizedMatrix quantize_rows(const double* a, int lda, int rows, int cols) {
  S2A_CHECK(rows >= 0 && cols >= 0);
  QuantizedMatrix q;
  q.rows = rows;
  q.cols = cols;
  q.data.resize(static_cast<std::size_t>(rows) * cols);
  q.scales.resize(static_cast<std::size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    const double* row = a + static_cast<std::size_t>(i) * lda;
    double amax = 0.0;
    for (int j = 0; j < cols; ++j) amax = std::max(amax, std::fabs(row[j]));
    const double scale = amax > 0.0 ? amax / 127.0 : 1.0;
    q.scales[static_cast<std::size_t>(i)] = scale;
    const double inv = 1.0 / scale;
    double* out = q.data.data() + static_cast<std::size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) out[j] = quantize_one(row[j], inv);
  }
  return q;
}

double activation_scale(const double* x, std::size_t n) {
  double amax = 0.0;
  for (std::size_t i = 0; i < n; ++i) amax = std::max(amax, std::fabs(x[i]));
  return amax > 0.0 ? amax / 127.0 : 1.0;
}

void quantize_values(double* x, std::size_t n, double scale) {
  S2A_CHECK(scale > 0.0);
  const double inv = 1.0 / scale;
  for (std::size_t i = 0; i < n; ++i) x[i] = quantize_one(x[i], inv);
}

void gemm_quantized(int m, int n, int k, const double* a_packed,
                    const double* a_scales, const double* b, int ldb,
                    double b_scale, double* c, int ldc,
                    util::ScratchArena& arena) {
  S2A_CHECK(m >= 0 && n >= 0 && k >= 0);
  if (m == 0 || n == 0) return;
  const std::size_t tile_n = static_cast<std::size_t>(n);
  double* acc = arena.alloc(static_cast<std::size_t>(m) * tile_n);
  std::fill_n(acc, static_cast<std::size_t>(m) * tile_n, 0.0);
  gemm_packed(m, n, k, a_packed, b, ldb, acc, n);
  for (int i = 0; i < m; ++i) {
    const double* arow = acc + static_cast<std::size_t>(i) * tile_n;
    double* crow = c + static_cast<std::size_t>(i) * ldc;
    const double deq = a_scales[i] * b_scale;
    for (int j = 0; j < n; ++j) crow[j] += deq * arow[j];
  }
}

namespace detail {

void gemm_int8_scalar(int m, int n, int k, const std::int8_t* a,
                      const double* a_scales, const std::int8_t* b, int ldb,
                      double b_scale, double* c, int ldc) {
  for (int i = 0; i < m; ++i) {
    const std::int8_t* arow = a + static_cast<std::size_t>(i) * k;
    double* crow = c + static_cast<std::size_t>(i) * ldc;
    const double deq = a_scales[i] * b_scale;
    for (int j = 0; j < n; ++j) {
      std::int32_t acc = 0;
      for (int kk = 0; kk < k; ++kk)
        acc += static_cast<std::int32_t>(arow[kk]) *
               static_cast<std::int32_t>(b[static_cast<std::size_t>(kk) * ldb +
                                           j]);
      crow[j] += deq * static_cast<double>(acc);
    }
  }
}

}  // namespace detail

}  // namespace s2a::nn
