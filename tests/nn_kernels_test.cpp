// Equivalence and memory-contract tests for the im2col + blocked-GEMM
// conv path (nn/gemm.hpp, nn/im2col.hpp, util/scratch_arena.hpp).
//
// The load-bearing property is the determinism contract from
// docs/ARCHITECTURE.md: the GEMM path must reproduce the naive loops
// bit-for-bit (EXPECT_EQ on doubles, no tolerance) for every shape,
// stride, padding, and thread count, because the ParallelEquivalence
// suites and the S2A_NAIVE_CONV oracle both lean on it.
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/gemm.hpp"
#include "nn/im2col.hpp"
#include "nn/layer.hpp"
#include "nn/quant.hpp"
#include "nn/tensor.hpp"
#include "obs/obs.hpp"
#include "util/cpu_features.hpp"
#include "util/rng.hpp"
#include "util/scratch_arena.hpp"
#include "util/thread_pool.hpp"

namespace s2a::nn {
namespace {

// Restores the backend (and leaves kAuto's env untouched) on scope exit.
class ScopedBackend {
 public:
  explicit ScopedBackend(ConvBackend b) { set_conv_backend(b); }
  ~ScopedBackend() { set_conv_backend(ConvBackend::kAuto); }
};

// Reference GEMM: the naive triple loop with the same per-element
// accumulation chain the blocked kernel promises (init from C, then
// ascending-k `acc += a*b`).
void naive_gemm(int m, int n, int k, const std::vector<double>& a,
                const std::vector<double>& b, std::vector<double>& c) {
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      double acc = c[static_cast<std::size_t>(i) * n + j];
      for (int kk = 0; kk < k; ++kk)
        acc += a[static_cast<std::size_t>(i) * k + kk] *
               b[static_cast<std::size_t>(kk) * n + j];
      c[static_cast<std::size_t>(i) * n + j] = acc;
    }
}

std::vector<double> random_vec(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal(0.0, 1.0);
  return v;
}

struct GemmShape {
  int m, n, k;
};

TEST(Gemm, MatchesNaiveTripleLoopBitExact) {
  // Shapes chosen to hit k=1, single elements, non-square panels, and
  // remainder tiles in every dimension (m % MR, n % NR, k % KC).
  const GemmShape shapes[] = {
      {1, 1, 1},     {1, 8, 1},    {4, 8, 1},    {3, 5, 7},
      {4, 16, 36},   {16, 24, 36}, {17, 31, 130}, {5, 9, 257},
      {32, 144, 144}, {4, 300, 513}, {12, 1, 40},
  };
  Rng rng(1234);
  for (const auto& s : shapes) {
    const auto a = random_vec(static_cast<std::size_t>(s.m) * s.k, rng);
    const auto b = random_vec(static_cast<std::size_t>(s.k) * s.n, rng);
    // Non-zero init: the contract starts each chain from C's prior value.
    auto c_ref = random_vec(static_cast<std::size_t>(s.m) * s.n, rng);
    auto c_gemm = c_ref;
    naive_gemm(s.m, s.n, s.k, a, b, c_ref);
    util::ScratchArena arena;
    gemm(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n, c_gemm.data(), s.n,
         arena);
    for (std::size_t i = 0; i < c_ref.size(); ++i)
      ASSERT_EQ(c_ref[i], c_gemm[i])
          << "m=" << s.m << " n=" << s.n << " k=" << s.k << " at " << i;
  }
}

TEST(Gemm, PackedASizeCoversPadding) {
  // The panel height follows the active kernel's MR (scalar 2, avx2 4,
  // avx512 8, ...), so test against the accessor, not a constant.
  const auto mr = static_cast<std::size_t>(gemm_mr());
  EXPECT_EQ(packed_a_size(1, 5), mr * 5);
  EXPECT_EQ(packed_a_size(static_cast<int>(mr), 3), mr * 3);
  EXPECT_EQ(packed_a_size(static_cast<int>(mr) + 1, 2), 2 * mr * 2);
}

std::size_t diff_count(const Tensor& a, const Tensor& b);

// Forces a kernel family for the scope; restores auto selection on exit.
class ScopedSimd {
 public:
  explicit ScopedSimd(util::SimdIsa isa) { util::set_simd_isa(isa); }
  ~ScopedSimd() { util::set_simd_isa(util::SimdIsa::kAuto); }
};

bool is_fused(util::SimdIsa isa) {
  return isa == util::SimdIsa::kAvx2Fma || isa == util::SimdIsa::kAvx512Fma;
}

TEST(SimdDispatch, ProbeAndSelectionAreConsistent) {
  // Scalar is always available; auto never stays unresolved; every ISA
  // the probe reports supported has a distinct stable name.
  EXPECT_TRUE(util::simd_isa_supported(util::SimdIsa::kScalar));
  EXPECT_NE(util::active_simd_isa(), util::SimdIsa::kAuto);
  const auto isas = util::supported_simd_isas();
  ASSERT_FALSE(isas.empty());
  for (std::size_t i = 0; i < isas.size(); ++i) {
    EXPECT_TRUE(util::simd_isa_supported(isas[i]));
    for (std::size_t j = i + 1; j < isas.size(); ++j)
      EXPECT_STRNE(util::simd_isa_name(isas[i]), util::simd_isa_name(isas[j]));
  }
  // Auto resolves to a bit-exact family — the fused kernels are opt-in.
  {
    ScopedSimd scoped(util::SimdIsa::kAuto);
    EXPECT_FALSE(is_fused(util::active_simd_isa()));
  }
  // The active kernel's reported geometry backs the packing layout.
  EXPECT_GE(gemm_mr(), 1);
  EXPECT_LE(gemm_mr(), kGemmMaxMR);
  EXPECT_LE(gemm_nr(), kGemmMaxNR);
  {
    ScopedSimd scoped(util::SimdIsa::kScalar);
    EXPECT_EQ(gemm_mr(), kGemmMR);
    EXPECT_EQ(gemm_nr(), kGemmNR);
    EXPECT_STREQ(gemm_kernel_name(), "scalar");
  }
}

TEST(SimdDispatch, EveryKernelHandlesEdgeShapes) {
  // Degenerate and tail-heavy shapes — m/n/k of 1, [1,1,k], partial
  // MR/NR panels around every compiled-in tile size (2, 4, 8 rows;
  // 4, 8, 16 columns), and KC straddles — against every supported
  // kernel family. Bit-exact families must match the naive loop with
  // EXPECT_EQ; the opt-in fused families get a tight relative band
  // (they skip one rounding per k step, nothing more).
  const GemmShape shapes[] = {
      {1, 1, 1},   {1, 1, 37},  {1, 1, 300}, {1, 16, 5},  {16, 1, 5},
      {2, 4, 1},   {3, 5, 2},   {4, 8, 9},   {5, 9, 11},  {7, 15, 13},
      {8, 16, 17}, {9, 17, 29}, {15, 31, 64}, {4, 576, 64}, {17, 33, 257},
  };
  Rng rng(99);
  for (const auto isa : util::supported_simd_isas()) {
    ScopedSimd scoped(isa);
    for (const auto& s : shapes) {
      const auto a = random_vec(static_cast<std::size_t>(s.m) * s.k, rng);
      const auto b = random_vec(static_cast<std::size_t>(s.k) * s.n, rng);
      auto c_ref = random_vec(static_cast<std::size_t>(s.m) * s.n, rng);
      auto c_gemm = c_ref;
      naive_gemm(s.m, s.n, s.k, a, b, c_ref);
      util::ScratchArena arena;
      gemm(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n, c_gemm.data(), s.n,
           arena);
      for (std::size_t i = 0; i < c_ref.size(); ++i) {
        if (is_fused(isa)) {
          const double tol =
              1e-13 * (1.0 + std::abs(c_ref[i])) * (1.0 + s.k);
          ASSERT_NEAR(c_ref[i], c_gemm[i], tol)
              << util::simd_isa_name(isa) << " m=" << s.m << " n=" << s.n
              << " k=" << s.k << " at " << i;
        } else {
          ASSERT_EQ(c_ref[i], c_gemm[i])
              << util::simd_isa_name(isa) << " m=" << s.m << " n=" << s.n
              << " k=" << s.k << " at " << i;
        }
      }
    }
  }
}

TEST(SimdDispatch, VectorConvMatchesScalarAcrossThreadCounts) {
  // The full conv forward (pack + lowering + gemm) must produce the
  // scalar kernel's bits under every bit-exact family at every thread
  // count — the vector kernels change speed, never the chain.
  ScopedBackend backend(ConvBackend::kGemm);
  Rng rng(45);
  Conv2D conv(4, 16, 3, 2, 1, rng);
  ConvTranspose2D deconv(16, 4, 4, 2, 1, rng);
  const Tensor x = Tensor::randn({1, 4, 24, 24}, rng);
  const Tensor z = Tensor::randn({1, 16, 12, 12}, rng);

  Tensor conv_ref, deconv_ref;
  {
    ScopedSimd scalar(util::SimdIsa::kScalar);
    util::ScopedGlobalThreads threads(1);
    conv_ref = conv.forward(x);
    deconv_ref = deconv.forward(z);
  }
  for (const auto isa : util::supported_simd_isas()) {
    if (is_fused(isa)) continue;
    ScopedSimd scoped(isa);
    for (int threads : {1, 2, 4}) {
      util::ScopedGlobalThreads scoped_threads(threads);
      EXPECT_EQ(diff_count(conv_ref, conv.forward(x)), 0u)
          << util::simd_isa_name(isa) << " " << threads << " threads";
      EXPECT_EQ(diff_count(deconv_ref, deconv.forward(z)), 0u)
          << util::simd_isa_name(isa) << " " << threads << " threads";
    }
  }
}

TEST(Quant, RowQuantizationRoundTripsWithinOneStep) {
  // Symmetric per-row scales: every value must round-trip within half a
  // quantization step, and the extreme of each row must hit ±127.
  Rng rng(7);
  const int rows = 6, cols = 40;
  const auto a = random_vec(static_cast<std::size_t>(rows) * cols, rng);
  const QuantizedMatrix q = quantize_rows(a.data(), cols, rows, cols);
  ASSERT_EQ(q.rows, rows);
  ASSERT_EQ(q.cols, cols);
  for (int i = 0; i < rows; ++i) {
    const double scale = q.scales[static_cast<std::size_t>(i)];
    ASSERT_GT(scale, 0.0);
    std::int8_t amax = 0;
    for (int j = 0; j < cols; ++j) {
      const std::size_t idx = static_cast<std::size_t>(i) * cols + j;
      EXPECT_NEAR(static_cast<double>(q.data[idx]) * scale, a[idx],
                  0.5 * scale + 1e-15);
      amax = std::max<std::int8_t>(
          amax, static_cast<std::int8_t>(std::abs(q.data[idx])));
    }
    EXPECT_EQ(amax, 127) << "row " << i;
  }
  // All-zero rows quantize to zeros with a benign scale.
  const std::vector<double> zeros(16, 0.0);
  const QuantizedMatrix qz = quantize_rows(zeros.data(), 16, 1, 16);
  EXPECT_EQ(qz.scales[0], 1.0);
  for (const auto v : qz.data) EXPECT_EQ(v, 0);
}

TEST(Quant, ActivationScaleIsBandInvariant) {
  // The scale is computed over the whole tensor, so however the work is
  // split (e.g. the images of a batch) it sees one quantization grid.
  Rng rng(8);
  const auto x = random_vec(333, rng);
  const double whole = activation_scale(x.data(), x.size());
  double banded_max = 0.0;
  for (std::size_t start = 0; start < x.size(); start += 100)
    banded_max = std::max(
        banded_max, activation_scale(x.data() + start,
                                     std::min<std::size_t>(100, x.size() -
                                                                    start)));
  EXPECT_EQ(whole, banded_max);
}

TEST(Quant, Int8GemmMatchesInt32Reference) {
  // gemm_quantized (integer-valued doubles through gemm_packed) must
  // equal the naive int32 loop EXACTLY — every partial sum is an integer
  // below 2^53 — including the bias-seeded C start, under every kernel
  // family (the fused ones included: an exact product-sum has nothing to
  // round).
  Rng rng(21);
  const GemmShape shapes[] = {
      {1, 1, 1}, {3, 5, 7}, {4, 16, 36}, {16, 24, 144}, {5, 33, 257},
  };
  for (const auto isa : util::supported_simd_isas()) {
    ScopedSimd scoped(isa);
    for (const auto& s : shapes) {
      const auto a = random_vec(static_cast<std::size_t>(s.m) * s.k, rng);
      const QuantizedMatrix qa = quantize_rows(a.data(), s.k, s.m, s.k);
      auto xq = random_vec(static_cast<std::size_t>(s.k) * s.n, rng);
      const double xs = activation_scale(xq.data(), xq.size());
      quantize_values(xq.data(), xq.size(), xs);
      auto c_ref = random_vec(static_cast<std::size_t>(s.m) * s.n, rng);
      auto c_int8 = c_ref;
      for (int i = 0; i < s.m; ++i)
        for (int j = 0; j < s.n; ++j) {
          std::int32_t acc = 0;
          for (int kk = 0; kk < s.k; ++kk)
            acc += static_cast<std::int32_t>(
                       qa.data[static_cast<std::size_t>(i) * s.k + kk]) *
                   static_cast<std::int32_t>(
                       xq[static_cast<std::size_t>(kk) * s.n + j]);
          c_ref[static_cast<std::size_t>(i) * s.n + j] +=
              qa.scales[static_cast<std::size_t>(i)] * xs *
              static_cast<double>(acc);
        }
      util::ScratchArena arena;
      double* ap = arena.alloc(packed_a_size(s.m, s.k));
      pack_a(qa.data.data(), s.k, s.m, s.k, ap);
      gemm_quantized(s.m, s.n, s.k, ap, qa.scales.data(), xq.data(), s.n, xs,
                     c_int8.data(), s.n, arena);
      for (std::size_t i = 0; i < c_ref.size(); ++i)
        ASSERT_EQ(c_ref[i], c_int8[i])
            << util::simd_isa_name(isa) << " m=" << s.m << " n=" << s.n
            << " k=" << s.k << " at " << i;
    }
  }
}

TEST(Quant, BackendResolvesEnvOverride) {
  set_quant_backend(QuantBackend::kAuto);
  setenv("S2A_QUANT", "1", 1);
  EXPECT_EQ(quant_backend(), QuantBackend::kInt8);
  unsetenv("S2A_QUANT");
  EXPECT_EQ(quant_backend(), QuantBackend::kFloat);
  set_quant_backend(QuantBackend::kInt8);
  EXPECT_EQ(quant_backend(), QuantBackend::kInt8);
  set_quant_backend(QuantBackend::kAuto);
}

TEST(Im2Col, RoundTripScalesByReadCount) {
  // col2im(im2col(x)) multiplies each pixel by the number of output
  // pixels reading it. Integer-valued inputs keep the repeated sums
  // exact, so the identity can be checked with EXPECT_EQ.
  const int cin = 3, h = 9, w = 7, k = 3, pad = 1;
  for (int stride : {1, 2, 3}) {
    const int oh = (h + 2 * pad - k) / stride + 1;
    const int ow = (w + 2 * pad - k) / stride + 1;
    Rng rng(77);
    std::vector<double> x(static_cast<std::size_t>(cin) * h * w);
    for (double& v : x)
      v = static_cast<double>(rng.uniform_int(0, 9));
    std::vector<double> ones(x.size(), 1.0);

    const std::size_t cols =
        static_cast<std::size_t>(im2col_rows(cin, k)) * oh * ow;
    std::vector<double> col(cols), col_ones(cols);
    im2col(x.data(), cin, h, w, k, stride, pad, col.data());
    im2col(ones.data(), cin, h, w, k, stride, pad, col_ones.data());

    std::vector<double> back(x.size(), 0.0), counts(x.size(), 0.0);
    col2im(col.data(), cin, h, w, k, stride, pad, back.data());
    col2im(col_ones.data(), cin, h, w, k, stride, pad, counts.data());
    for (std::size_t i = 0; i < x.size(); ++i)
      ASSERT_EQ(back[i], x[i] * counts[i]) << "stride=" << stride << " i=" << i;
  }
}

// ---- Conv forward: GEMM path vs. naive oracle ----

struct ConvCase {
  int cin, cout, k, stride, pad, h, w;
  int n = 2;
};

// Shapes shared by the forward, backward and int8 differential suites.
const ConvCase kConvCases[] = {
    {1, 1, 1, 1, 0, 5, 5},   {2, 3, 3, 1, 1, 7, 5},
    {3, 4, 3, 2, 1, 9, 11},  {4, 16, 3, 2, 1, 48, 48},
    {2, 5, 5, 3, 2, 13, 17}, {1, 2, 4, 2, 1, 10, 6},
    {6, 4, 3, 1, 0, 9, 9},
    // Edge shapes for the per-tap valid-span gather: kernel shorter
    // than the stride, pad >= k, pad = k - 1, 1x1 and 1xN inputs,
    // stride 3 with k = 5, and batch 3.
    {3, 4, 1, 2, 0, 7, 9},   {2, 3, 2, 3, 0, 8, 10},
    {2, 3, 3, 2, 3, 5, 6},   {2, 3, 3, 2, 2, 6, 7},
    {3, 2, 3, 2, 1, 1, 1},   {2, 3, 3, 2, 1, 1, 9},
    {2, 3, 5, 3, 1, 11, 13}, {3, 5, 3, 2, 1, 9, 10, 3},
};

const ConvCase kDeconvCases[] = {
    {1, 1, 1, 1, 0, 5, 5},  {3, 2, 3, 1, 1, 7, 5},
    {2, 3, 4, 2, 1, 9, 11}, {32, 16, 4, 2, 1, 12, 12},
    {2, 2, 5, 3, 2, 6, 7},  {4, 1, 3, 2, 0, 5, 9},
    // Edge shapes for the sub-pixel phase gather: kernel shorter than
    // the stride (phases with no tap are pure bias), pad >= k,
    // pad = k - 1, 1x1 and 1xN inputs, stride 3 with k = 5, and
    // batch 3.
    {3, 2, 1, 2, 0, 5, 6},  {2, 3, 2, 3, 0, 4, 5},
    {2, 3, 3, 2, 3, 6, 7},  {2, 3, 4, 2, 3, 5, 6},
    {3, 2, 4, 2, 1, 1, 1},  {2, 3, 4, 2, 1, 1, 7},
    {2, 3, 5, 3, 1, 5, 6},  {4, 3, 4, 2, 1, 6, 5, 3},
};

std::size_t diff_count(const Tensor& a, const Tensor& b) {
  if (a.numel() != b.numel()) return a.numel() + b.numel();
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.numel(); ++i)
    if (a[i] != b[i]) ++bad;
  return bad;
}

TEST(ConvBackendEquivalence, Conv2DBitExactAcrossShapes) {
  Rng rng(42);
  for (const auto& c : kConvCases) {
    Conv2D conv(c.cin, c.cout, c.k, c.stride, c.pad, rng);
    const Tensor x = Tensor::randn({c.n, c.cin, c.h, c.w}, rng);
    Tensor naive, fast;
    {
      ScopedBackend backend(ConvBackend::kNaive);
      naive = conv.forward(x);
    }
    {
      ScopedBackend backend(ConvBackend::kGemm);
      fast = conv.forward(x);
    }
    EXPECT_EQ(diff_count(naive, fast), 0u)
        << "cin=" << c.cin << " cout=" << c.cout << " k=" << c.k
        << " stride=" << c.stride << " pad=" << c.pad << " h=" << c.h
        << " w=" << c.w << " n=" << c.n;
  }
}

TEST(ConvBackendEquivalence, ConvTranspose2DBitExactAcrossShapes) {
  Rng rng(43);
  for (const auto& c : kDeconvCases) {
    ConvTranspose2D deconv(c.cin, c.cout, c.k, c.stride, c.pad, rng);
    const Tensor x = Tensor::randn({c.n, c.cin, c.h, c.w}, rng);
    Tensor naive, fast;
    {
      ScopedBackend backend(ConvBackend::kNaive);
      naive = deconv.forward(x);
    }
    {
      ScopedBackend backend(ConvBackend::kGemm);
      fast = deconv.forward(x);
    }
    EXPECT_EQ(diff_count(naive, fast), 0u)
        << "cin=" << c.cin << " cout=" << c.cout << " k=" << c.k
        << " stride=" << c.stride << " pad=" << c.pad << " h=" << c.h
        << " w=" << c.w << " n=" << c.n;
  }
}

TEST(ConvBackendEquivalence, EnvVarSelectsNaiveOracle) {
  set_conv_backend(ConvBackend::kAuto);
  setenv("S2A_NAIVE_CONV", "1", 1);
  EXPECT_EQ(conv_backend(), ConvBackend::kNaive);
  unsetenv("S2A_NAIVE_CONV");
  EXPECT_EQ(conv_backend(), ConvBackend::kGemm);
}

TEST(ConvBackendEquivalence, GemmPathBitExactAcrossThreadCounts) {
  // A two-image batch spreads its images over the pool (one arena slot
  // per chunk, exercised under TSan); the per-element accumulation chain
  // must not depend on the thread count.
  ScopedBackend backend(ConvBackend::kGemm);
  Rng rng(44);
  Conv2D conv(4, 16, 3, 2, 1, rng);
  ConvTranspose2D deconv(16, 4, 4, 2, 1, rng);
  const Tensor x = Tensor::randn({2, 4, 48, 48}, rng);
  const Tensor z = Tensor::randn({2, 16, 24, 24}, rng);

  Tensor conv_serial, deconv_serial;
  {
    util::ScopedGlobalThreads threads(1);
    conv_serial = conv.forward(x);
    deconv_serial = deconv.forward(z);
  }
  for (int threads : {2, 3, 4, 7}) {
    util::ScopedGlobalThreads scoped(threads);
    EXPECT_EQ(diff_count(conv_serial, conv.forward(x)), 0u)
        << threads << " threads";
    EXPECT_EQ(diff_count(deconv_serial, deconv.forward(z)), 0u)
        << threads << " threads";
  }

  // The paper tick's layers on its 32x32x4 grid: the reconstruct
  // encoder (shared with the detector backbone), both decoder deconvs
  // (the first is also the detector's upsampler) and the detector's
  // 1x1 heads, each against the naive oracle at every thread count.
  struct PaperLayer {
    const char* name;
    std::unique_ptr<Layer> layer;
    Tensor x;
  };
  std::vector<PaperLayer> paper;
  paper.push_back({"conv1", std::make_unique<Conv2D>(4, 16, 3, 2, 1, rng),
                   Tensor::randn({1, 4, 32, 32}, rng)});
  paper.push_back({"conv2", std::make_unique<Conv2D>(16, 32, 3, 2, 1, rng),
                   Tensor::randn({1, 16, 16, 16}, rng)});
  paper.push_back({"deconv1",
                   std::make_unique<ConvTranspose2D>(32, 16, 4, 2, 1, rng),
                   Tensor::randn({1, 32, 8, 8}, rng)});
  paper.push_back({"deconv2",
                   std::make_unique<ConvTranspose2D>(16, 4, 4, 2, 1, rng),
                   Tensor::randn({1, 16, 16, 16}, rng)});
  paper.push_back({"cls_head", std::make_unique<Conv2D>(16, 3, 1, 1, 0, rng),
                   Tensor::randn({1, 16, 16, 16}, rng)});
  paper.push_back({"off_head", std::make_unique<Conv2D>(16, 2, 1, 1, 0, rng),
                   Tensor::randn({1, 16, 16, 16}, rng)});
  std::vector<Tensor> oracle;
  {
    ScopedBackend naive(ConvBackend::kNaive);
    for (auto& p : paper) oracle.push_back(p.layer->forward(p.x));
  }
  ScopedBackend gemm(ConvBackend::kGemm);
  for (int threads : {1, 2, 3, 4, 7}) {
    util::ScopedGlobalThreads scoped(threads);
    for (std::size_t i = 0; i < paper.size(); ++i)
      EXPECT_EQ(diff_count(oracle[i], paper[i].layer->forward(paper[i].x)), 0u)
          << paper[i].name << ", " << threads << " threads";
  }
}

// nn.conv_forward / nn.deconv_forward and the backward spans carry the
// pass's MACs and the bytes of the tensors it reads and writes.
TEST(ConvSpans, CarryMacsAndBytes) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::trace_buffer().clear();
  Rng rng(48);
  Conv2D conv(3, 5, 3, 2, 1, rng);          // 9x9 -> 5x5
  ConvTranspose2D deconv(5, 2, 4, 2, 1, rng);  // 5x5 -> 10x10
  const Tensor x = Tensor::randn({2, 3, 9, 9}, rng);
  const Tensor z = conv.forward(x);
  const Tensor y = deconv.forward(z);
  deconv.backward(Tensor::randn({2, 2, 10, 10}, rng));
  conv.backward(Tensor::randn({2, 5, 5, 5}, rng));
  obs::set_enabled(was_enabled);

  // Element counts: conv x 486, w 135, b 5, y 250; deconv x 250, w 160,
  // b 2, y 400. Forward bytes cover x, w, b and y; backward bytes cover
  // grad_out, x, w, gw and dx.
  const std::uint64_t conv_macs = 5ull * 3 * 9 * 25 * 2;
  const std::uint64_t deconv_macs = 5ull * 2 * 16 * 25 * 2;
  struct Want {
    const char* name;
    std::uint64_t macs, bytes;
  };
  const Want want[] = {
      {"nn.conv_forward", conv_macs, 8 * (486 + 135 + 5 + 250)},
      {"nn.deconv_forward", deconv_macs, 8 * (250 + 160 + 2 + 400)},
      {"nn.deconv_backward", 2 * deconv_macs, 8 * (400 + 250 + 2 * 160 + 250)},
      {"nn.conv_backward", 2 * conv_macs, 8 * (250 + 486 + 2 * 135 + 486)},
  };
  const auto events = obs::trace_buffer().events();
  ASSERT_EQ(events.size(), std::size(want));
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_STREQ(events[i].name, want[i].name);
    EXPECT_EQ(events[i].macs, want[i].macs) << want[i].name;
    EXPECT_EQ(events[i].bytes, want[i].bytes) << want[i].name;
  }
}

TEST(Im2Col, TransposedGatherMatchesIm2Col) {
  // im2col_t is the transposed gather the weight-gradient GEMMs consume:
  // row per output pixel, taps in (ic, ky, kx) order — exactly im2col's
  // column. Both are pure copies, so the match is bitwise.
  struct Case {
    int cin, h, w, k, stride, pad;
  };
  const Case cases[] = {
      {1, 5, 5, 1, 1, 0}, {2, 9, 7, 3, 1, 1}, {3, 11, 8, 4, 2, 1},
      {2, 6, 7, 5, 3, 2},
  };
  Rng rng(79);
  for (const auto& c : cases) {
    const int oh = (c.h + 2 * c.pad - c.k) / c.stride + 1;
    const int ow = (c.w + 2 * c.pad - c.k) / c.stride + 1;
    const int kdim = im2col_rows(c.cin, c.k);
    const auto x = random_vec(static_cast<std::size_t>(c.cin) * c.h * c.w, rng);

    std::vector<double> col(static_cast<std::size_t>(kdim) * oh * ow);
    im2col(x.data(), c.cin, c.h, c.w, c.k, c.stride, c.pad, col.data());
    std::vector<double> colt(static_cast<std::size_t>(oh) * ow * kdim);
    im2col_t(x.data(), c.cin, c.h, c.w, c.k, c.stride, c.pad, colt.data());
    for (int p = 0; p < oh * ow; ++p)
      for (int r = 0; r < kdim; ++r)
        ASSERT_EQ(colt[static_cast<std::size_t>(p) * kdim + r],
                  col[static_cast<std::size_t>(r) * oh * ow + p])
            << "p=" << p << " r=" << r;
  }
}

// ---- Backward: GEMM path vs. naive oracle ----

struct BackwardResult {
  Tensor dx, gw, gb;
};

// One zero_grad + forward + backward under `backend`; returns dx and
// copies of the accumulated parameter gradients.
BackwardResult run_backward(Layer& layer, const Tensor& x,
                            const Tensor& grad_out, ConvBackend backend) {
  ScopedBackend scoped(backend);
  layer.zero_grad();
  layer.forward(x);
  BackwardResult r;
  r.dx = layer.backward(grad_out);
  r.gw = *layer.grads()[0];
  r.gb = *layer.grads()[1];
  return r;
}

TEST(ConvBackendEquivalence, Conv2DBackwardBitExactAcrossShapes) {
  Rng rng(45);
  for (const auto& c : kConvCases) {
    Conv2D conv(c.cin, c.cout, c.k, c.stride, c.pad, rng);
    const Tensor x = Tensor::randn({c.n, c.cin, c.h, c.w}, rng);
    const Tensor g = Tensor::randn(
        {c.n, c.cout, conv.out_size(c.h), conv.out_size(c.w)}, rng);
    const auto naive = run_backward(conv, x, g, ConvBackend::kNaive);
    const auto fast = run_backward(conv, x, g, ConvBackend::kGemm);
    EXPECT_EQ(diff_count(naive.dx, fast.dx), 0u)
        << "dx: cin=" << c.cin << " cout=" << c.cout << " k=" << c.k
        << " stride=" << c.stride << " pad=" << c.pad << " h=" << c.h
        << " w=" << c.w << " n=" << c.n;
    EXPECT_EQ(diff_count(naive.gw, fast.gw), 0u)
        << "gw: cin=" << c.cin << " cout=" << c.cout << " k=" << c.k
        << " stride=" << c.stride << " pad=" << c.pad << " h=" << c.h
        << " w=" << c.w << " n=" << c.n;
    EXPECT_EQ(diff_count(naive.gb, fast.gb), 0u) << "gb";
  }
}

TEST(ConvBackendEquivalence, ConvTranspose2DBackwardBitExactAcrossShapes) {
  Rng rng(46);
  for (const auto& c : kDeconvCases) {
    ConvTranspose2D deconv(c.cin, c.cout, c.k, c.stride, c.pad, rng);
    const Tensor x = Tensor::randn({c.n, c.cin, c.h, c.w}, rng);
    const Tensor g = Tensor::randn(
        {c.n, c.cout, deconv.out_size(c.h), deconv.out_size(c.w)}, rng);
    const auto naive = run_backward(deconv, x, g, ConvBackend::kNaive);
    const auto fast = run_backward(deconv, x, g, ConvBackend::kGemm);
    EXPECT_EQ(diff_count(naive.dx, fast.dx), 0u)
        << "dx: cin=" << c.cin << " cout=" << c.cout << " k=" << c.k
        << " stride=" << c.stride << " pad=" << c.pad << " h=" << c.h
        << " w=" << c.w << " n=" << c.n;
    EXPECT_EQ(diff_count(naive.gw, fast.gw), 0u)
        << "gw: cin=" << c.cin << " cout=" << c.cout << " k=" << c.k
        << " stride=" << c.stride << " pad=" << c.pad << " h=" << c.h
        << " w=" << c.w << " n=" << c.n;
    EXPECT_EQ(diff_count(naive.gb, fast.gb), 0u) << "gb";
  }
}

TEST(ConvBackendEquivalence, DenseBitExactBothDirections) {
  Rng rng(47);
  struct Case {
    int in, out, n;
  };
  const Case cases[] = {{1, 1, 1}, {3, 4, 2}, {17, 9, 5}, {64, 48, 16},
                        {5, 130, 3}};
  for (const auto& c : cases) {
    Dense dense(c.in, c.out, rng);
    const Tensor x = Tensor::randn({c.n, c.in}, rng);
    Tensor y_naive, y_fast;
    {
      ScopedBackend backend(ConvBackend::kNaive);
      y_naive = dense.forward(x);
    }
    {
      ScopedBackend backend(ConvBackend::kGemm);
      y_fast = dense.forward(x);
    }
    EXPECT_EQ(diff_count(y_naive, y_fast), 0u)
        << "forward: in=" << c.in << " out=" << c.out << " n=" << c.n;

    const Tensor g = Tensor::randn({c.n, c.out}, rng);
    const auto naive = run_backward(dense, x, g, ConvBackend::kNaive);
    const auto fast = run_backward(dense, x, g, ConvBackend::kGemm);
    EXPECT_EQ(diff_count(naive.dx, fast.dx), 0u)
        << "dx: in=" << c.in << " out=" << c.out << " n=" << c.n;
    EXPECT_EQ(diff_count(naive.gw, fast.gw), 0u)
        << "gw: in=" << c.in << " out=" << c.out << " n=" << c.n;
    EXPECT_EQ(diff_count(naive.gb, fast.gb), 0u) << "gb";
  }
}

TEST(ConvBackendEquivalence, BackwardBitExactAcrossThreadCounts) {
  // The backward passes are serial loops, so the bits cannot depend on
  // the pool size. The naive oracle anchors the comparison at each count.
  Rng rng(48);
  Conv2D conv(4, 16, 3, 2, 1, rng);
  ConvTranspose2D deconv(16, 4, 4, 2, 1, rng);
  const Tensor x = Tensor::randn({1, 4, 48, 48}, rng);
  const Tensor gx = Tensor::randn({1, 16, 24, 24}, rng);
  const Tensor z = Tensor::randn({1, 16, 24, 24}, rng);
  const Tensor gz = Tensor::randn({1, 4, 48, 48}, rng);

  BackwardResult conv_oracle, deconv_oracle;
  {
    util::ScopedGlobalThreads threads(1);
    conv_oracle = run_backward(conv, x, gx, ConvBackend::kNaive);
    deconv_oracle = run_backward(deconv, z, gz, ConvBackend::kNaive);
  }
  for (int threads : {1, 2, 4}) {
    util::ScopedGlobalThreads scoped(threads);
    const auto c = run_backward(conv, x, gx, ConvBackend::kGemm);
    EXPECT_EQ(diff_count(conv_oracle.dx, c.dx), 0u) << threads << " threads";
    EXPECT_EQ(diff_count(conv_oracle.gw, c.gw), 0u) << threads << " threads";
    EXPECT_EQ(diff_count(conv_oracle.gb, c.gb), 0u) << threads << " threads";
    const auto d = run_backward(deconv, z, gz, ConvBackend::kGemm);
    EXPECT_EQ(diff_count(deconv_oracle.dx, d.dx), 0u) << threads << " threads";
    EXPECT_EQ(diff_count(deconv_oracle.gw, d.gw), 0u) << threads << " threads";
    EXPECT_EQ(diff_count(deconv_oracle.gb, d.gb), 0u) << threads << " threads";
  }
}

// ---- Int8 forward: double-GEMM path vs. the int32 oracle ----
//
// Each oracle recomputes a quantized layer's forward from its float
// weights with detail::gemm_int8_scalar: the same per-row weight codes
// and one activation scale over the whole input, multiplied in int32
// onto the bias. The layers run those codes through gemm_packed as
// integer-valued doubles, which is exact, so the match is EXPECT_EQ.

std::vector<std::int8_t> to_int8(const std::vector<double>& codes) {
  return {codes.begin(), codes.end()};
}

// Activation codes of the whole tensor, and the scale they were cut at.
std::vector<double> quantized_input(const Tensor& x, double& xs) {
  std::vector<double> q(x.data(), x.data() + x.numel());
  xs = activation_scale(q.data(), q.size());
  quantize_values(q.data(), q.size(), xs);
  return q;
}

Tensor conv_int8_oracle(Conv2D& conv, const Tensor& x, const ConvCase& c) {
  const Tensor& w = *conv.params()[0];
  const Tensor& bias = *conv.params()[1];
  const int kdim = im2col_rows(c.cin, c.k);
  const int oh = conv.out_size(c.h), ow = conv.out_size(c.w);
  const int out_hw = oh * ow;
  const QuantizedMatrix qw = quantize_rows(w.data(), kdim, c.cout, kdim);
  const std::vector<std::int8_t> wq = to_int8(qw.data);
  double xs = 0.0;
  const std::vector<double> xq = quantized_input(x, xs);
  Tensor y({c.n, c.cout, oh, ow});
  std::vector<double> col(static_cast<std::size_t>(kdim) * out_hw);
  for (int b = 0; b < c.n; ++b) {
    im2col(xq.data() + static_cast<std::size_t>(b) * c.cin * c.h * c.w,
           c.cin, c.h, c.w, c.k, c.stride, c.pad, col.data());
    double* yb = y.data() + static_cast<std::size_t>(b) * c.cout * out_hw;
    for (int oc = 0; oc < c.cout; ++oc)
      std::fill_n(yb + static_cast<std::size_t>(oc) * out_hw, out_hw,
                  bias[static_cast<std::size_t>(oc)]);
    detail::gemm_int8_scalar(c.cout, out_hw, kdim, wq.data(),
                             qw.scales.data(), to_int8(col).data(), out_hw, xs,
                             yb, out_hw);
  }
  return y;
}

// The deconv quantizes one weight matrix per sub-pixel phase (py, px):
// rows are output channels, columns the (ic, ky, kx) taps with
// ky % s == py and kx % s == px, so each phase has its own row scales.
// Output pixel (oy, ox) belongs to phase ((oy + pad) % s, (ox + pad) % s)
// and reads input (iy, ix) = ((oy + pad - ky) / s, (ox + pad - kx) / s).
Tensor deconv_int8_oracle(ConvTranspose2D& deconv, const Tensor& x,
                          const ConvCase& c) {
  const Tensor& w = *deconv.params()[0];  // [cin, cout, k, k]
  const Tensor& bias = *deconv.params()[1];
  const int s = c.stride;
  const int oh = deconv.out_size(c.h), ow = deconv.out_size(c.w);
  double xs = 0.0;
  const std::vector<double> xq = quantized_input(x, xs);
  Tensor y({c.n, c.cout, oh, ow});
  for (int py = 0; py < s; ++py)
    for (int px = 0; px < s; ++px) {
      std::vector<std::array<int, 3>> taps;  // (ic, ky, kx)
      for (int ic = 0; ic < c.cin; ++ic)
        for (int ky = py; ky < c.k; ky += s)
          for (int kx = px; kx < c.k; kx += s) taps.push_back({ic, ky, kx});
      const int kdim = static_cast<int>(taps.size());
      std::vector<double> wph(static_cast<std::size_t>(c.cout) * kdim);
      for (int oc = 0; oc < c.cout; ++oc)
        for (int t = 0; t < kdim; ++t)
          wph[static_cast<std::size_t>(oc) * kdim + t] =
              w[((static_cast<std::size_t>(taps[t][0]) * c.cout + oc) * c.k +
                 taps[t][1]) * c.k + taps[t][2]];
      const QuantizedMatrix qw = quantize_rows(wph.data(), kdim, c.cout, kdim);
      const std::vector<std::int8_t> wq = to_int8(qw.data);

      std::vector<std::array<int, 3>> pixels;  // (b, oy, ox)
      for (int b = 0; b < c.n; ++b)
        for (int oy = 0; oy < oh; ++oy)
          for (int ox = 0; ox < ow; ++ox)
            if ((oy + c.pad) % s == py && (ox + c.pad) % s == px)
              pixels.push_back({b, oy, ox});
      const int np = static_cast<int>(pixels.size());
      if (np == 0) continue;
      std::vector<std::int8_t> cols(static_cast<std::size_t>(kdim) * np, 0);
      for (int t = 0; t < kdim; ++t)
        for (int j = 0; j < np; ++j) {
          const auto [b, oy, ox] = pixels[static_cast<std::size_t>(j)];
          const int ny = oy + c.pad - taps[t][1];
          const int nx = ox + c.pad - taps[t][2];
          if (ny < 0 || nx < 0 || ny / s >= c.h || nx / s >= c.w) continue;
          cols[static_cast<std::size_t>(t) * np + j] = static_cast<std::int8_t>(
              xq[((static_cast<std::size_t>(b) * c.cin + taps[t][0]) * c.h +
                  ny / s) * c.w + nx / s]);
        }
      std::vector<double> out(static_cast<std::size_t>(c.cout) * np);
      for (int oc = 0; oc < c.cout; ++oc)
        std::fill_n(out.begin() + static_cast<std::ptrdiff_t>(oc) * np, np,
                    bias[static_cast<std::size_t>(oc)]);
      detail::gemm_int8_scalar(c.cout, np, kdim, wq.data(), qw.scales.data(),
                               cols.data(), np, xs, out.data(), np);
      for (int oc = 0; oc < c.cout; ++oc)
        for (int j = 0; j < np; ++j) {
          const auto [b, oy, ox] = pixels[static_cast<std::size_t>(j)];
          y[((static_cast<std::size_t>(b) * c.cout + oc) * oh + oy) * ow + ox] =
              out[static_cast<std::size_t>(oc) * np + j];
        }
    }
  return y;
}

Tensor dense_int8_oracle(Dense& dense, const Tensor& x) {
  const Tensor& w = *dense.params()[0];  // [out, in]
  const Tensor& bias = *dense.params()[1];
  const int n = x.dim(0), in = dense.in_features(), out = dense.out_features();
  const QuantizedMatrix qw = quantize_rows(w.data(), in, out, in);
  double xs = 0.0;
  const std::vector<double> xq = quantized_input(x, xs);
  std::vector<std::int8_t> xt(static_cast<std::size_t>(in) * n);
  for (int i = 0; i < n; ++i)
    for (int p = 0; p < in; ++p)
      xt[static_cast<std::size_t>(p) * n + i] = static_cast<std::int8_t>(
          xq[static_cast<std::size_t>(i) * in + p]);
  std::vector<double> yt(static_cast<std::size_t>(out) * n, 0.0);
  detail::gemm_int8_scalar(out, n, in, to_int8(qw.data).data(),
                           qw.scales.data(), xt.data(), n, xs, yt.data(), n);
  Tensor y({n, out});
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < out; ++j)
      y[static_cast<std::size_t>(i) * out + j] =
          yt[static_cast<std::size_t>(j) * n + i] +
          bias[static_cast<std::size_t>(j)];
  return y;
}

TEST(QuantLayers, Int8ForwardMatchesInt32OracleAcrossKernelsAndThreads) {
  Rng rng(49);
  struct Subject {
    std::string name;
    std::unique_ptr<Layer> layer;
    Tensor x, oracle;
  };
  std::vector<Subject> subjects;
  const auto seed_bias = [&rng](Layer& layer) {
    Tensor& bias = *layer.params()[1];
    for (std::size_t i = 0; i < bias.numel(); ++i)
      bias[i] = rng.normal(0.0, 0.1);
    layer.quantize();
  };
  const auto describe = [](const char* kind, const ConvCase& c) {
    std::ostringstream os;
    os << kind << " cin=" << c.cin << " cout=" << c.cout << " k=" << c.k
       << " stride=" << c.stride << " pad=" << c.pad << " h=" << c.h
       << " w=" << c.w << " n=" << c.n;
    return os.str();
  };

  // The paper tick's 32x32x4 layers (reconstruct encoder = detector
  // backbone, both decoder deconvs, the detector heads), then every
  // edge shape of the backend-equivalence tables.
  std::vector<ConvCase> convs = {{4, 16, 3, 2, 1, 32, 32, 1},
                                 {16, 32, 3, 2, 1, 16, 16, 1},
                                 {16, 3, 1, 1, 0, 16, 16, 1},
                                 {16, 2, 1, 1, 0, 16, 16, 1}};
  convs.insert(convs.end(), std::begin(kConvCases), std::end(kConvCases));
  std::vector<ConvCase> deconvs = {{32, 16, 4, 2, 1, 8, 8, 1},
                                   {16, 4, 4, 2, 1, 16, 16, 1}};
  deconvs.insert(deconvs.end(), std::begin(kDeconvCases),
                 std::end(kDeconvCases));
  for (const auto& c : convs) {
    auto conv = std::make_unique<Conv2D>(c.cin, c.cout, c.k, c.stride, c.pad,
                                         rng);
    seed_bias(*conv);
    Tensor x = Tensor::randn({c.n, c.cin, c.h, c.w}, rng);
    Tensor oracle = conv_int8_oracle(*conv, x, c);
    subjects.push_back({describe("conv", c), std::move(conv), std::move(x),
                        std::move(oracle)});
  }
  for (const auto& c : deconvs) {
    auto deconv = std::make_unique<ConvTranspose2D>(c.cin, c.cout, c.k,
                                                    c.stride, c.pad, rng);
    seed_bias(*deconv);
    Tensor x = Tensor::randn({c.n, c.cin, c.h, c.w}, rng);
    Tensor oracle = deconv_int8_oracle(*deconv, x, c);
    subjects.push_back({describe("deconv", c), std::move(deconv),
                        std::move(x), std::move(oracle)});
  }
  for (const auto& [in, out, n] : {std::array<int, 3>{1, 1, 1},
                                   {3, 4, 2}, {17, 9, 5}, {64, 48, 16},
                                   {5, 130, 3}}) {
    auto dense = std::make_unique<Dense>(in, out, rng);
    seed_bias(*dense);
    Tensor x = Tensor::randn({n, in}, rng);
    Tensor oracle = dense_int8_oracle(*dense, x);
    subjects.push_back({"dense in=" + std::to_string(in) + " out=" +
                            std::to_string(out) + " n=" + std::to_string(n),
                        std::move(dense), std::move(x), std::move(oracle)});
  }

  set_quant_backend(QuantBackend::kInt8);
  std::vector<util::SimdIsa> isas = {util::SimdIsa::kAuto};
  const auto supported = util::supported_simd_isas();
  isas.insert(isas.end(), supported.begin(), supported.end());
  for (const auto isa : isas) {
    ScopedSimd scoped(isa);
    for (int threads : {1, 4}) {
      util::ScopedGlobalThreads scoped_threads(threads);
      for (auto& subject : subjects)
        EXPECT_EQ(diff_count(subject.oracle, subject.layer->forward(subject.x)),
                  0u)
            << subject.name << " under " << util::simd_isa_name(isa) << ", "
            << threads << " threads";
    }
  }
  set_quant_backend(QuantBackend::kAuto);
}

// ---- Backward: finite-difference gradient checks ----

// L = 0.5*||y||^2 so dL/dy = y (non-uniform output gradients), matching
// the nn_test.cpp convention. Checks dL/d(input) and dL/d(params) by
// central differences under the given backend.
void check_gradients(Layer& layer, const Tensor& x, ConvBackend backend,
                     double eps = 1e-5, double tol = 1e-6) {
  ScopedBackend scoped(backend);
  layer.zero_grad();
  const Tensor y = layer.forward(x);
  const Tensor dx = layer.backward(y);

  Tensor xm = x;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    xm[i] = x[i] + eps;
    const double lp = 0.5 * layer.forward(xm).squared_norm();
    xm[i] = x[i] - eps;
    const double lm = 0.5 * layer.forward(xm).squared_norm();
    xm[i] = x[i];
    const double num = (lp - lm) / (2 * eps);
    ASSERT_NEAR(dx[i], num, tol * std::max(1.0, std::abs(num)))
        << "input grad mismatch at " << i;
  }

  auto params = layer.params();
  auto grads = layer.grads();
  ASSERT_EQ(params.size(), grads.size());
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Tensor& p = *params[pi];
    const Tensor& g = *grads[pi];
    for (std::size_t i = 0; i < p.numel(); ++i) {
      const double orig = p[i];
      p[i] = orig + eps;
      const double lp = 0.5 * layer.forward(x).squared_norm();
      p[i] = orig - eps;
      const double lm = 0.5 * layer.forward(x).squared_norm();
      p[i] = orig;
      const double num = (lp - lm) / (2 * eps);
      ASSERT_NEAR(g[i], num, tol * std::max(1.0, std::abs(num)))
          << "param " << pi << " grad mismatch at " << i;
    }
  }
}

TEST(BackwardGradientCheck, Conv2DBothBackends) {
  for (ConvBackend backend : {ConvBackend::kNaive, ConvBackend::kGemm}) {
    Rng rng(90);
    Conv2D conv(2, 3, 3, 2, 1, rng);
    const Tensor x = Tensor::randn({2, 2, 6, 6}, rng);
    check_gradients(conv, x, backend);
  }
}

TEST(BackwardGradientCheck, ConvTranspose2DBothBackends) {
  for (ConvBackend backend : {ConvBackend::kNaive, ConvBackend::kGemm}) {
    Rng rng(91);
    ConvTranspose2D deconv(3, 2, 4, 2, 1, rng);
    const Tensor x = Tensor::randn({1, 3, 4, 4}, rng);
    check_gradients(deconv, x, backend);
  }
}

TEST(BackwardGradientCheck, DenseBothBackends) {
  for (ConvBackend backend : {ConvBackend::kNaive, ConvBackend::kGemm}) {
    Rng rng(92);
    Dense dense(3, 4, rng);
    const Tensor x = Tensor::randn({2, 3}, rng);
    check_gradients(dense, x, backend);
  }
}

// ---- ScratchArena ----

TEST(ScratchArena, AllocationsAreAligned) {
  util::ScratchArena arena;
  for (std::size_t count : {1u, 3u, 64u, 1000u, 5000u}) {
    double* p = arena.alloc(count);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) %
                  util::ScratchArena::kAlignment,
              0u)
        << "count=" << count;
  }
}

TEST(ScratchArena, FrameAllocationsDoNotOverlap) {
  util::ScratchArena arena;
  double* a = arena.alloc(100);
  double* b = arena.alloc(50);
  double* c = arena.alloc(7000);  // forces a second block mid-frame
  for (int i = 0; i < 100; ++i) a[i] = 1.0;
  for (int i = 0; i < 50; ++i) b[i] = 2.0;
  for (int i = 0; i < 7000; ++i) c[i] = 3.0;
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a[i], 1.0);
  for (int i = 0; i < 50; ++i) ASSERT_EQ(b[i], 2.0);
  EXPECT_GE(arena.used(), 7150u);
}

TEST(ScratchArena, GrowOnlyReuseAfterReset) {
  util::ScratchArena arena;
  arena.alloc(3000);
  arena.alloc(3000);
  const std::size_t cap = arena.capacity();
  EXPECT_GE(cap, 6000u);
  arena.reset();
  EXPECT_EQ(arena.used(), 0u);
  // Same demand again: capacity must not grow (grow-only, but
  // converged), and the first allocation must come from the coalesced
  // block's base — i.e. no allocator traffic in steady state.
  double* p1 = arena.alloc(3000);
  arena.alloc(3000);
  EXPECT_EQ(arena.capacity(), cap);
  arena.reset();
  EXPECT_EQ(arena.alloc(3000), p1);
}

TEST(ScratchArena, SlotsAreIndependentUnderPoolTasks) {
  util::ScopedGlobalThreads threads(4);
  util::ScratchArena arena;
  const std::size_t kSlots = 8;
  arena.ensure_slots(kSlots);
  EXPECT_EQ(arena.slots(), kSlots);
  // Each task hammers its own slot; any cross-slot sharing of the bump
  // pointer or backing blocks shows up as corrupted sums (and as a race
  // under TSan).
  std::vector<double> sums(kSlots, 0.0);
  util::global_pool().parallel_for_chunks(
      0, kSlots, 1, [&](std::size_t lo, std::size_t, std::size_t c) {
        util::ScratchArena& slot = arena.slot(c);
        for (int rep = 0; rep < 50; ++rep) {
          slot.reset();
          double* buf = slot.alloc(512);
          for (int i = 0; i < 512; ++i)
            buf[i] = static_cast<double>(lo + 1);
          double s = 0.0;
          for (int i = 0; i < 512; ++i) s += buf[i];
          sums[c] = s;
        }
      });
  for (std::size_t i = 0; i < kSlots; ++i)
    EXPECT_EQ(sums[i], 512.0 * static_cast<double>(i + 1));
}

TEST(ScratchArena, EnsureSlotsNeverShrinks) {
  util::ScratchArena arena;
  arena.ensure_slots(4);
  arena.slot(3).alloc(100);
  const std::size_t cap = arena.slot(3).capacity();
  arena.ensure_slots(2);
  EXPECT_EQ(arena.slots(), 4u);
  EXPECT_EQ(arena.slot(3).capacity(), cap);
}

TEST(ScratchArena, TrainingStepsStopGrowingAfterWarmup) {
  // The zero-steady-state-allocation invariant: after the first two full
  // forward+backward steps (the second lets reset() coalesce multi-block
  // chains into one backing block, which itself counts as a growth),
  // further steps must perform zero arena growth and leave capacity
  // untouched. Two-image batches at a fixed thread count, so the slot
  // sub-arenas of the batched forward are exercised too.
  util::ScopedGlobalThreads threads(4);
  ScopedBackend backend(ConvBackend::kGemm);
  Rng rng(93);
  Conv2D conv(3, 8, 3, 2, 1, rng);
  ConvTranspose2D deconv(8, 3, 4, 2, 1, rng);
  Dense dense(32, 16, rng);

  const Tensor xc = Tensor::randn({2, 3, 16, 16}, rng);
  const Tensor xd = Tensor::randn({2, 8, 8, 8}, rng);
  const Tensor xf = Tensor::randn({4, 32}, rng);
  const auto step = [&] {
    for (Layer* l : {static_cast<Layer*>(&conv), static_cast<Layer*>(&deconv),
                     static_cast<Layer*>(&dense)}) {
      l->zero_grad();
    }
    conv.backward(conv.forward(xc));
    deconv.backward(deconv.forward(xd));
    dense.backward(dense.forward(xf));
  };

  step();
  step();
  std::size_t growth = 0, capacity = 0;
  for (const Layer* l : {static_cast<const Layer*>(&conv),
                         static_cast<const Layer*>(&deconv),
                         static_cast<const Layer*>(&dense)}) {
    growth += l->scratch()->total_growth_count();
    capacity += l->scratch()->total_capacity();
  }
  EXPECT_GT(growth, 0u);
  EXPECT_GT(capacity, 0u);

  for (int rep = 0; rep < 5; ++rep) step();
  std::size_t growth_after = 0, capacity_after = 0;
  for (const Layer* l : {static_cast<const Layer*>(&conv),
                         static_cast<const Layer*>(&deconv),
                         static_cast<const Layer*>(&dense)}) {
    growth_after += l->scratch()->total_growth_count();
    capacity_after += l->scratch()->total_capacity();
  }
  EXPECT_EQ(growth_after, growth);
  EXPECT_EQ(capacity_after, capacity);
}

}  // namespace
}  // namespace s2a::nn
