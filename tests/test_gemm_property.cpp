// Property tests for the packed GEMM (tensor/gemm.cpp).
//
// 1. GemmProperty.*: sgemm / sgemm_at / sgemm_bt and the bias-epilogue
//    variants agree with a double-accumulating naive triple loop over
//    randomized shapes — including shapes not divisible by the register
//    tile and multi-depth-block k — for alpha/beta in {0, 1, 0.5}.
// 2. GemmProperty.ColumnPositionIndependence: a column's accumulation is
//    bit-identical wherever it lands in the tiling (whole C vs one-column
//    calls). This is the invariant the batched conv relies on.
// 3. ConvBatchStability.*: Conv2D's batched forward (one [psz, N*opix]
//    im2col + one GEMM) equals per-sample forward bitwise.
// 4. PackPanels.*: the A and B panel packers equal a scalar reference
//    bitwise at every edge width, depth and stride orientation.
#include "tensor/gemm.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "nn/conv2d.hpp"
#include "tensor/pack.hpp"
#include "tensor/tensor.hpp"

namespace dnnspmv {
namespace {

struct GemmCase {
  std::int64_t m, n, k;
};

// Shape zoo: tile-exact, every edge flavour (m%6, n%16, both), k crossing
// the 256-deep block boundary, m crossing the 64-row block boundary, and
// n crossing the 2048-column block boundary.
const std::array<GemmCase, 9> kCases = {{{1, 1, 1},
                                         {6, 16, 9},
                                         {3, 5, 7},
                                         {7, 17, 5},
                                         {13, 33, 64},
                                         {12, 128, 9},
                                         {23, 40, 300},
                                         {70, 50, 20},
                                         {64, 2100, 10}}};

const std::array<float, 3> kScales = {0.0f, 1.0f, 0.5f};

// Naive strided reference: logical A[i,p] at a[i*rs_a + p*cs_a], B[p,j] at
// b[p*rs_b + j*cs_b]. Accumulates in double so it is strictly more
// accurate than any float path under test.
std::vector<float> naive_gemm(std::int64_t m, std::int64_t n, std::int64_t k,
                              float alpha, const float* a, std::int64_t rs_a,
                              std::int64_t cs_a, const float* b,
                              std::int64_t rs_b, std::int64_t cs_b,
                              float beta, const std::vector<float>& c0,
                              const float* row_bias, const float* col_bias) {
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p)
        acc += static_cast<double>(a[i * rs_a + p * cs_a]) *
               static_cast<double>(b[p * rs_b + j * cs_b]);
      double v = static_cast<double>(alpha) * acc;
      if (beta != 0.0f)
        v += static_cast<double>(beta) *
             static_cast<double>(c0[static_cast<std::size_t>(i * n + j)]);
      if (row_bias) v += static_cast<double>(row_bias[i]);
      if (col_bias) v += static_cast<double>(col_bias[j]);
      c[static_cast<std::size_t>(i * n + j)] = static_cast<float>(v);
    }
  }
  return c;
}

void expect_close(const std::vector<float>& ref, const Tensor& got,
                  const GemmCase& cs, float alpha, float beta) {
  ASSERT_EQ(static_cast<std::int64_t>(ref.size()), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const float tol = 5e-4f * (1.0f + std::fabs(ref[i]));
    ASSERT_NEAR(ref[i], got[static_cast<std::int64_t>(i)], tol)
        << "m=" << cs.m << " n=" << cs.n << " k=" << cs.k
        << " alpha=" << alpha << " beta=" << beta << " idx=" << i;
  }
}

TEST(GemmProperty, MatchesNaiveReference) {
  Rng rng(20240801);
  for (const GemmCase& cs : kCases) {
    Tensor a({cs.m, cs.k}), b({cs.k, cs.n}), c0({cs.m, cs.n});
    a.fill_uniform(rng, -1.0f, 1.0f);
    b.fill_uniform(rng, -1.0f, 1.0f);
    c0.fill_uniform(rng, -1.0f, 1.0f);
    const std::vector<float> init(c0.data(), c0.data() + c0.size());
    for (float alpha : kScales) {
      for (float beta : kScales) {
        Tensor c({cs.m, cs.n});
        std::memcpy(c.data(), init.data(), init.size() * sizeof(float));
        sgemm(cs.m, cs.n, cs.k, alpha, a.data(), b.data(), beta, c.data());
        expect_close(naive_gemm(cs.m, cs.n, cs.k, alpha, a.data(), cs.k, 1,
                                b.data(), cs.n, 1, beta, init, nullptr,
                                nullptr),
                     c, cs, alpha, beta);
      }
    }
  }
}

TEST(GemmProperty, TransposedVariantsMatchNaive) {
  Rng rng(20240802);
  for (const GemmCase& cs : kCases) {
    Tensor at({cs.k, cs.m}), bt({cs.n, cs.k}), b({cs.k, cs.n});
    Tensor a({cs.m, cs.k}), c0({cs.m, cs.n});
    at.fill_uniform(rng, -1.0f, 1.0f);
    bt.fill_uniform(rng, -1.0f, 1.0f);
    a.fill_uniform(rng, -1.0f, 1.0f);
    b.fill_uniform(rng, -1.0f, 1.0f);
    c0.fill_uniform(rng, -1.0f, 1.0f);
    const std::vector<float> init(c0.data(), c0.data() + c0.size());
    for (float alpha : kScales) {
      for (float beta : kScales) {
        Tensor c({cs.m, cs.n});
        std::memcpy(c.data(), init.data(), init.size() * sizeof(float));
        sgemm_at(cs.m, cs.n, cs.k, alpha, at.data(), b.data(), beta,
                 c.data());
        expect_close(naive_gemm(cs.m, cs.n, cs.k, alpha, at.data(), 1, cs.m,
                                b.data(), cs.n, 1, beta, init, nullptr,
                                nullptr),
                     c, cs, alpha, beta);

        std::memcpy(c.data(), init.data(), init.size() * sizeof(float));
        sgemm_bt(cs.m, cs.n, cs.k, alpha, a.data(), bt.data(), beta,
                 c.data());
        expect_close(naive_gemm(cs.m, cs.n, cs.k, alpha, a.data(), cs.k, 1,
                                bt.data(), 1, cs.k, beta, init, nullptr,
                                nullptr),
                     c, cs, alpha, beta);
      }
    }
  }
}

TEST(GemmProperty, BiasEpilogueVariantsMatchNaive) {
  Rng rng(20240803);
  for (const GemmCase& cs : kCases) {
    Tensor a({cs.m, cs.k}), b({cs.k, cs.n}), bt({cs.n, cs.k});
    Tensor rb({cs.m}), cb({cs.n}), c0({cs.m, cs.n});
    a.fill_uniform(rng, -1.0f, 1.0f);
    b.fill_uniform(rng, -1.0f, 1.0f);
    bt.fill_uniform(rng, -1.0f, 1.0f);
    rb.fill_uniform(rng, -1.0f, 1.0f);
    cb.fill_uniform(rng, -1.0f, 1.0f);
    c0.fill_uniform(rng, -1.0f, 1.0f);
    const std::vector<float> init(c0.data(), c0.data() + c0.size());
    for (float beta : kScales) {
      Tensor c({cs.m, cs.n});
      std::memcpy(c.data(), init.data(), init.size() * sizeof(float));
      sgemm_row_bias(cs.m, cs.n, cs.k, 1.0f, a.data(), b.data(), beta,
                     c.data(), rb.data());
      expect_close(naive_gemm(cs.m, cs.n, cs.k, 1.0f, a.data(), cs.k, 1,
                              b.data(), cs.n, 1, beta, init, rb.data(),
                              nullptr),
                   c, cs, 1.0f, beta);

      std::memcpy(c.data(), init.data(), init.size() * sizeof(float));
      sgemm_bt_col_bias(cs.m, cs.n, cs.k, 1.0f, a.data(), bt.data(), beta,
                        c.data(), cb.data());
      expect_close(naive_gemm(cs.m, cs.n, cs.k, 1.0f, a.data(), cs.k, 1,
                              bt.data(), 1, cs.k, beta, init, nullptr,
                              cb.data()),
                   c, cs, 1.0f, beta);
    }
  }
}

// The conv forward's row bias lands after the whole reduction, one float
// add per output: bitwise the plain product plus the bias, at every tile
// shape and across the 256-deep block boundary.
TEST(GemmProperty, RowBiasEqualsProductPlusBiasBitwise) {
  Rng rng(20240809);
  for (const GemmCase& cs : kCases) {
    Tensor a({cs.m, cs.k}), b({cs.k, cs.n}), rb({cs.m});
    a.fill_uniform(rng, -1.0f, 1.0f);
    b.fill_uniform(rng, -1.0f, 1.0f);
    rb.fill_uniform(rng, -1.0f, 1.0f);
    Tensor fused({cs.m, cs.n}), plain({cs.m, cs.n});
    sgemm_row_bias(cs.m, cs.n, cs.k, 1.0f, a.data(), b.data(), 0.0f,
                   fused.data(), rb.data());
    sgemm(cs.m, cs.n, cs.k, 1.0f, a.data(), b.data(), 0.0f, plain.data());
    for (std::int64_t i = 0; i < cs.m; ++i)
      for (std::int64_t j = 0; j < cs.n; ++j)
        plain.at2(i, j) += rb[i];
    EXPECT_EQ(std::memcmp(fused.data(), plain.data(),
                          static_cast<std::size_t>(fused.size()) *
                              sizeof(float)),
              0)
        << "m=" << cs.m << " n=" << cs.n << " k=" << cs.k;
  }
}

// alpha == 0 or k == 0 takes the parallel epilogue-only path; it must scale
// and apply biases exactly like the naive reference.
TEST(GemmProperty, EpilogueOnlyPath) {
  Rng rng(20240804);
  const std::int64_t m = 11, n = 29, k = 13;
  Tensor a({m, k}), b({k, n}), rb({m}), c0({m, n});
  a.fill_uniform(rng, -1.0f, 1.0f);
  b.fill_uniform(rng, -1.0f, 1.0f);
  rb.fill_uniform(rng, -1.0f, 1.0f);
  c0.fill_uniform(rng, -1.0f, 1.0f);
  const std::vector<float> init(c0.data(), c0.data() + c0.size());

  Tensor c({m, n});
  std::memcpy(c.data(), init.data(), init.size() * sizeof(float));
  sgemm_row_bias(m, n, k, 0.0f, a.data(), b.data(), 0.5f, c.data(),
                 rb.data());
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j)
      EXPECT_FLOAT_EQ(c.at2(i, j),
                      0.5f * init[static_cast<std::size_t>(i * n + j)] +
                          rb[i]);

  std::memcpy(c.data(), init.data(), init.size() * sizeof(float));
  sgemm(m, n, 0, 1.0f, a.data(), b.data(), 0.0f, c.data());
  for (std::int64_t i = 0; i < m * n; ++i) EXPECT_EQ(c[i], 0.0f);
}

// The load-bearing determinism property: computing C whole vs one column
// at a time gives bitwise-identical floats, i.e. a column's accumulation
// chain does not depend on where it sits in the tiling (full tile, tail
// tile, or its own single-column call).
TEST(GemmProperty, ColumnPositionIndependence) {
  Rng rng(20240805);
  const std::int64_t m = 13, n = 37, k = 70;
  Tensor a({m, k}), b({k, n});
  a.fill_uniform(rng, -1.0f, 1.0f);
  b.fill_uniform(rng, -1.0f, 1.0f);

  Tensor whole({m, n});
  sgemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, whole.data());

  Tensor bcol({k, 1}), ccol({m, 1});
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t p = 0; p < k; ++p) bcol[p] = b.at2(p, j);
    sgemm(m, 1, k, 1.0f, a.data(), bcol.data(), 0.0f, ccol.data());
    for (std::int64_t i = 0; i < m; ++i)
      ASSERT_EQ(whole.at2(i, j), ccol[i]) << "col " << j << " row " << i;
  }
}

// Batched conv forward (all N samples in one im2col + one GEMM) must equal
// per-sample forward bitwise — format selection decisions may not depend
// on how requests were batched by the serving tier.
TEST(ConvBatchStability, BatchedForwardEqualsPerSampleBitwise) {
  Rng rng(20240806);
  const std::int64_t N = 5, C = 3, H = 9, W = 7;
  Conv2D conv(C, 10, 3, 2, 1, rng);

  Tensor in({N, C, H, W});
  in.fill_uniform(rng, -1.0f, 1.0f);

  Workspace ws;
  Tensor batched;
  conv.forward(in, batched, false, ws);

  const auto out_shape = conv.output_shape({1, C, H, W});
  Tensor one({1, C, H, W}), out_one;
  const std::int64_t isz = C * H * W;
  for (std::int64_t s = 0; s < N; ++s) {
    std::memcpy(one.data(), in.data() + s * isz,
                static_cast<std::size_t>(isz) * sizeof(float));
    conv.forward(one, out_one, false, ws);
    ASSERT_EQ(out_one.size(), batched.size() / N);
    const float* bslice = batched.data() + s * out_one.size();
    for (std::int64_t i = 0; i < out_one.size(); ++i)
      ASSERT_EQ(bslice[i], out_one[i]) << "sample " << s << " idx " << i;
  }
  (void)out_shape;
}

// ---------------------------------------------------------------------------
// Panel packers: pure data movement, so every float of a panel — zero
// padding included — must match a scalar reference bitwise, and nothing
// may be written past the panel.

constexpr float kGuard = -7.25f;

std::vector<float> ref_pack_a(std::int64_t rows, std::int64_t kc,
                              const float* a, std::int64_t rs,
                              std::int64_t cs) {
  std::vector<float> out(static_cast<std::size_t>(kc * kMR));
  for (std::int64_t p = 0; p < kc; ++p)
    for (std::int64_t i = 0; i < kMR; ++i)
      out[static_cast<std::size_t>(p * kMR + i)] =
          i < rows ? a[i * rs + p * cs] : 0.0f;
  return out;
}

std::vector<float> ref_pack_b(std::int64_t kc, std::int64_t cols,
                              const float* b, std::int64_t rs,
                              std::int64_t cs) {
  std::vector<float> out(static_cast<std::size_t>(kc * kNR));
  for (std::int64_t p = 0; p < kc; ++p)
    for (std::int64_t j = 0; j < kNR; ++j)
      out[static_cast<std::size_t>(p * kNR + j)] =
          j < cols ? b[p * rs + j * cs] : 0.0f;
  return out;
}

// Source values with NaN, ±0 and ±inf sprinkled in, so a packer that
// rounds, flushes or reorders anything shows up in the bits.
std::vector<float> pack_source(std::int64_t n, Rng& rng) {
  std::vector<float> src(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    if (i % 37 == 5)
      src[i] = std::numeric_limits<float>::quiet_NaN();
    else if (i % 37 == 11)
      src[i] = -0.0f;
    else if (i % 37 == 19)
      src[i] = std::numeric_limits<float>::infinity();
    else
      src[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return src;
}

bool panel_matches(const std::vector<float>& ref,
                   const std::vector<float>& dst) {
  const std::size_t n = ref.size();
  if (std::memcmp(ref.data(), dst.data(), n * sizeof(float)) != 0)
    return false;
  for (std::size_t i = n; i < dst.size(); ++i)
    if (dst[i] != kGuard) return false;
  return true;
}

const std::array<std::int64_t, 7> kPackDepths = {1, 7, 8, 9, 255, 256, 300};

TEST(PackPanels, APanelMatchesScalarReferenceBitwise) {
  Rng rng(20240810);
  for (std::int64_t rows = 1; rows <= kMR; ++rows) {
    for (const std::int64_t kc : kPackDepths) {
      // Contiguous depth (rows `ld` apart, the sgemm/sgemm_bt A and conv
      // dW's grad_out) and contiguous rows (the sgemm_at A), each from an
      // aligned and an unaligned base.
      const std::int64_t ld_rows = kc + 3, ld_depth = rows + 5;
      for (const bool depth_contiguous : {true, false}) {
        const std::int64_t rs = depth_contiguous ? ld_rows : 1;
        const std::int64_t cs = depth_contiguous ? 1 : ld_depth;
        const std::int64_t span = depth_contiguous ? rows * ld_rows
                                                   : kc * ld_depth;
        const std::vector<float> src = pack_source(span + 8, rng);
        for (const std::int64_t base : {0, 1, 3}) {
          const float* a = src.data() + base;
          std::vector<float> dst(static_cast<std::size_t>(kc * kMR + 16),
                                 kGuard);
          pack_a_panel(rows, kc, a, rs, cs, dst.data());
          EXPECT_TRUE(panel_matches(ref_pack_a(rows, kc, a, rs, cs), dst))
              << "rows=" << rows << " kc=" << kc
              << " depth_contiguous=" << depth_contiguous
              << " base=" << base;
        }
      }
    }
  }
}

TEST(PackPanels, BPanelMatchesScalarReferenceBitwise) {
  Rng rng(20240811);
  for (std::int64_t cols = 1; cols <= kNR; ++cols) {
    for (const std::int64_t kc : kPackDepths) {
      // Contiguous columns (row-major B) and contiguous depth (the B^T of
      // sgemm_bt: conv dW's lowered input, Dense forward's weights).
      const std::int64_t ld_depth = cols + 5, ld_cols = kc + 3;
      for (const bool cols_contiguous : {true, false}) {
        const std::int64_t rs = cols_contiguous ? ld_depth : 1;
        const std::int64_t cs = cols_contiguous ? 1 : ld_cols;
        const std::int64_t span = cols_contiguous ? kc * ld_depth
                                                  : cols * ld_cols;
        const std::vector<float> src = pack_source(span + 8, rng);
        for (const std::int64_t base : {0, 1, 3}) {
          const float* b = src.data() + base;
          std::vector<float> dst(static_cast<std::size_t>(kc * kNR + 16),
                                 kGuard);
          pack_b_panel(kc, cols, b, rs, cs, dst.data());
          EXPECT_TRUE(panel_matches(ref_pack_b(kc, cols, b, rs, cs), dst))
              << "cols=" << cols << " kc=" << kc
              << " cols_contiguous=" << cols_contiguous
              << " base=" << base;
        }
      }
    }
  }
}

// Same forward twice through the same workspace: buffers are reused, the
// bits must not change.
TEST(ConvBatchStability, RepeatForwardIsIdempotent) {
  Rng rng(20240807);
  Conv2D conv(2, 6, 3, 1, 1, rng);
  Tensor in({4, 2, 8, 8});
  in.fill_uniform(rng, -1.0f, 1.0f);

  Workspace ws;
  Tensor out1, out2;
  conv.forward(in, out1, false, ws);
  conv.forward(in, out2, false, ws);
  ASSERT_EQ(out1.size(), out2.size());
  for (std::int64_t i = 0; i < out1.size(); ++i)
    ASSERT_EQ(out1[i], out2[i]);
}

}  // namespace
}  // namespace dnnspmv
