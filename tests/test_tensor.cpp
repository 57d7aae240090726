#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>

#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"

namespace dnnspmv {
namespace {

TEST(Tensor, ResizeZeroInitializes) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6);
  for (std::int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

// ensure() on a new shape keeps the buffer's elements (its callers
// overwrite them); only elements past the old size start at zero.
TEST(Tensor, EnsureKeepsElementsAndZeroesGrowth) {
  Tensor t({2, 2});
  t.fill(3.0f);
  t.ensure({3, 2});
  ASSERT_EQ(t.shape(), (std::vector<std::int64_t>{3, 2}));
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 3.0f);
  for (std::int64_t i = 4; i < 6; ++i) EXPECT_EQ(t[i], 0.0f);
  t.ensure2(1, 3);
  ASSERT_EQ(t.shape(), (std::vector<std::int64_t>{1, 3}));
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_EQ(t[i], 3.0f);
  t.ensure2(2, 3);
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_EQ(t[i], 3.0f);
  for (std::int64_t i = 3; i < 6; ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 6});
  for (std::int64_t i = 0; i < 12; ++i) t[i] = static_cast<float>(i);
  t.reshape({3, 4});
  EXPECT_EQ(t.dim(0), 3);
  EXPECT_EQ(t.dim(1), 4);
  EXPECT_EQ(t.at2(2, 3), 11.0f);
}

TEST(Tensor, ReshapeRejectsCountMismatch) {
  Tensor t({2, 3});
  EXPECT_THROW(t.reshape({4, 2}), std::runtime_error);
}

TEST(Tensor, At4Nchw) {
  Tensor t({2, 3, 4, 5});
  t.at4(1, 2, 3, 4) = 7.0f;
  EXPECT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 7.0f);
}

TEST(Tensor, AddAndScale) {
  Tensor a({4}), b({4});
  a.fill(2.0f);
  b.fill(3.0f);
  a.add_(b);
  a.scale_(0.5f);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(a[i], 2.5f);
}

TEST(Tensor, SumAndMaxAbs) {
  Tensor t({3});
  t[0] = -4.0f;
  t[1] = 1.0f;
  t[2] = 2.0f;
  EXPECT_DOUBLE_EQ(t.sum(), -1.0);
  EXPECT_FLOAT_EQ(t.max_abs(), 4.0f);
}

TEST(Tensor, FillNormalRoughMoments) {
  Rng rng(5);
  Tensor t({20000});
  t.fill_normal(rng, 2.0f);
  double sum = 0.0, sumsq = 0.0;
  for (std::int64_t i = 0; i < t.size(); ++i) {
    sum += t[i];
    sumsq += static_cast<double>(t[i]) * t[i];
  }
  const double mean = sum / static_cast<double>(t.size());
  const double var = sumsq / static_cast<double>(t.size()) - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

// --- GEMM reference comparisons -------------------------------------------

void naive_gemm(std::int64_t m, std::int64_t n, std::int64_t k,
                const float* a, const float* b, float* c) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p)
        acc += static_cast<double>(a[i * k + p]) * b[p * n + j];
      c[i * n + j] = static_cast<float>(acc);
    }
}

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, MatchesNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 1000003 + n * 1009 + k));
  Tensor a({m, k}), b({k, n}), c({m, n}), ref({m, n});
  a.fill_uniform(rng, -1.0f, 1.0f);
  b.fill_uniform(rng, -1.0f, 1.0f);
  sgemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
  naive_gemm(m, n, k, a.data(), b.data(), ref.data());
  for (std::int64_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], ref[i], 1e-4f) << "at " << i;
}

TEST_P(GemmShapes, TransposeAMatchesNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m + n + k));
  Tensor at({k, m}), b({k, n}), c({m, n}), ref({m, n});
  at.fill_uniform(rng, -1.0f, 1.0f);
  b.fill_uniform(rng, -1.0f, 1.0f);
  // Build A = at^T explicitly for the reference.
  Tensor a({m, k});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t p = 0; p < k; ++p) a.at2(i, p) = at.at2(p, i);
  sgemm_at(m, n, k, 1.0f, at.data(), b.data(), 0.0f, c.data());
  naive_gemm(m, n, k, a.data(), b.data(), ref.data());
  for (std::int64_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], ref[i], 1e-4f);
}

TEST_P(GemmShapes, TransposeBMatchesNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 7 + n * 11 + k * 13));
  Tensor a({m, k}), bt({n, k}), c({m, n}), ref({m, n});
  a.fill_uniform(rng, -1.0f, 1.0f);
  bt.fill_uniform(rng, -1.0f, 1.0f);
  Tensor b({k, n});
  for (std::int64_t p = 0; p < k; ++p)
    for (std::int64_t j = 0; j < n; ++j) b.at2(p, j) = bt.at2(j, p);
  sgemm_bt(m, n, k, 1.0f, a.data(), bt.data(), 0.0f, c.data());
  naive_gemm(m, n, k, a.data(), b.data(), ref.data());
  for (std::int64_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], ref[i], 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(16, 16, 16),
                      std::make_tuple(33, 17, 65),
                      std::make_tuple(64, 1, 128),
                      std::make_tuple(1, 64, 300)));

TEST(Gemm, BetaAccumulates) {
  Tensor a({2, 2}), b({2, 2}), c({2, 2});
  a.fill(1.0f);
  b.fill(1.0f);
  c.fill(10.0f);
  sgemm(2, 2, 2, 1.0f, a.data(), b.data(), 1.0f, c.data());
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(c[i], 12.0f);
}

TEST(Gemm, AlphaScales) {
  Tensor a({2, 3}), b({3, 2}), c({2, 2});
  a.fill(1.0f);
  b.fill(1.0f);
  sgemm(2, 2, 3, 2.0f, a.data(), b.data(), 0.0f, c.data());
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(c[i], 6.0f);
}

// --- im2col ---------------------------------------------------------------

TEST(Im2col, IdentityKernelReproducesInput) {
  // 1x1 kernel, stride 1, no pad: col equals the flattened image.
  ConvGeom g{2, 3, 4, 1, 1, 1, 1, 0, 0};
  Tensor im({2 * 3 * 4});
  for (std::int64_t i = 0; i < im.size(); ++i) im[i] = static_cast<float>(i);
  Tensor col({g.patch_size() * g.out_h() * g.out_w()});
  im2col(g, im.data(), col.data());
  for (std::int64_t i = 0; i < im.size(); ++i) EXPECT_EQ(col[i], im[i]);
}

TEST(Im2col, PaddingProducesZeros) {
  ConvGeom g{1, 2, 2, 3, 3, 1, 1, 1, 1};
  Tensor im({4});
  im.fill(5.0f);
  Tensor col({g.patch_size() * g.out_h() * g.out_w()});
  im2col(g, im.data(), col.data());
  // Patch row 0 = kernel position (0,0): output pixel (0,0) reads the
  // padded (-1,-1) → 0.
  EXPECT_EQ(col[0], 0.0f);
}

TEST(Im2col, KnownSmallCase) {
  // 1 channel 3x3 image, 2x2 kernel, stride 1, no pad → 4 patches.
  ConvGeom g{1, 3, 3, 2, 2, 1, 1, 0, 0};
  Tensor im({9});
  for (std::int64_t i = 0; i < 9; ++i) im[i] = static_cast<float>(i + 1);
  Tensor col({g.patch_size() * 4});
  im2col(g, im.data(), col.data());
  // Patch element (kh=0,kw=0) across the 4 output pixels: 1,2,4,5.
  EXPECT_EQ(col[0], 1.0f);
  EXPECT_EQ(col[1], 2.0f);
  EXPECT_EQ(col[2], 4.0f);
  EXPECT_EQ(col[3], 5.0f);
  // Patch element (kh=1,kw=1): 5,6,8,9.
  EXPECT_EQ(col[12], 5.0f);
  EXPECT_EQ(col[15], 9.0f);
}

TEST(Im2col, Col2imIsAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property that
  // makes conv backward correct.
  ConvGeom g{2, 5, 6, 3, 3, 2, 2, 1, 1};
  const std::int64_t imsz = g.channels * g.height * g.width;
  const std::int64_t colsz = g.patch_size() * g.out_h() * g.out_w();
  Rng rng(99);
  Tensor x({imsz}), y({colsz}), cx({colsz}), iy({imsz});
  x.fill_uniform(rng, -1.0f, 1.0f);
  y.fill_uniform(rng, -1.0f, 1.0f);
  im2col(g, x.data(), cx.data());
  col2im(g, y.data(), iy.data());
  double lhs = 0.0, rhs = 0.0;
  for (std::int64_t i = 0; i < colsz; ++i)
    lhs += static_cast<double>(cx[i]) * y[i];
  for (std::int64_t i = 0; i < imsz; ++i)
    rhs += static_cast<double>(x[i]) * iy[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

// The batched lowering of every sample equals the per-sample one bitwise,
// in both directions: im2col_batch's column block n is im2col of sample n,
// and col2im_batch's image n is col2im of column block n (same adds in the
// same order, so NaN, ±0 and ±inf land alike).
TEST(Im2col, BatchedLoweringEqualsPerSampleBitwise) {
  const ConvGeom geoms[] = {
      {12, 16, 8, 3, 3, 2, 2, 1, 1},  // conv2: 4-pixel output rows
      {3, 9, 7, 3, 3, 2, 2, 1, 1},    // odd sizes, stride 2
      {2, 11, 13, 3, 3, 2, 2, 0, 0},  // stride 2, no padding
      {2, 7, 5, 2, 2, 2, 2, 1, 1},    // even kernel, stride 2
      {1, 32, 16, 3, 3, 1, 1, 1, 1},  // conv1: stride 1
      {3, 9, 7, 3, 3, 1, 1, 1, 1},    // odd sizes, stride 1
      {2, 5, 9, 3, 3, 1, 1, 0, 0},    // stride 1, no padding
  };
  Rng rng(77);
  for (const ConvGeom& g : geoms) {
    for (const std::int64_t batch : {1, 3, 5}) {
      const std::int64_t imsz = g.channels * g.height * g.width;
      const std::int64_t opix = g.out_h() * g.out_w();
      const std::int64_t psz = g.patch_size();
      const std::int64_t ncols = batch * opix;
      Tensor im({batch * imsz}), gcol({psz * ncols});
      im.fill_uniform(rng, -1.0f, 1.0f);
      gcol.fill_uniform(rng, -1.0f, 1.0f);
      im[1] = -0.0f;
      gcol[2] = -0.0f;
      gcol[psz * ncols - 1] = std::numeric_limits<float>::infinity();
      gcol[ncols + 1] = std::numeric_limits<float>::quiet_NaN();

      Tensor col({psz * ncols}), grad_im({batch * imsz});
      col.fill(std::numeric_limits<float>::quiet_NaN());
      grad_im.fill(std::numeric_limits<float>::quiet_NaN());
      im2col_batch(g, batch, im.data(), col.data());
      col2im_batch(g, batch, gcol.data(), grad_im.data());

      Tensor one_col({psz * opix}), one_gcol({psz * opix}), one_im({imsz});
      for (std::int64_t n = 0; n < batch; ++n) {
        im2col(g, im.data() + n * imsz, one_col.data());
        for (std::int64_t r = 0; r < psz; ++r)
          std::memcpy(one_gcol.data() + r * opix,
                      gcol.data() + r * ncols + n * opix,
                      static_cast<std::size_t>(opix) * sizeof(float));
        col2im(g, one_gcol.data(), one_im.data());
        for (std::int64_t r = 0; r < psz; ++r)
          ASSERT_EQ(std::memcmp(col.data() + r * ncols + n * opix,
                                one_col.data() + r * opix,
                                static_cast<std::size_t>(opix) *
                                    sizeof(float)),
                    0)
              << "im2col stride " << g.stride_h << " " << g.height << "x"
              << g.width << " batch " << batch << " sample " << n
              << " row " << r;
        ASSERT_EQ(std::memcmp(grad_im.data() + n * imsz, one_im.data(),
                              static_cast<std::size_t>(imsz) * sizeof(float)),
                  0)
            << "col2im stride " << g.stride_h << " " << g.height << "x"
            << g.width << " batch " << batch << " sample " << n;
      }
    }
  }
}

}  // namespace
}  // namespace dnnspmv
