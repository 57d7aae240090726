// Edge cases for the sparse substrate: empty rows, degenerate shapes,
// refusal conditions, and kernel determinism.
#include <gtest/gtest.h>

#include "gen/generators.hpp"
#include "sparse/spmv.hpp"

namespace dnnspmv {
namespace {

Csr diag_matrix(index_t n) {
  std::vector<Triplet> ts;
  for (index_t i = 0; i < n; ++i) ts.push_back({i, i, 1.0 + i});
  return csr_from_triplets(n, n, std::move(ts));
}

TEST(Edge, MatrixWithEmptyRowsAllFormats) {
  // Rows 1 and 3 empty.
  const Csr a =
      csr_from_triplets(5, 5, {{0, 0, 1.0}, {2, 4, 2.0}, {4, 2, 3.0}});
  std::vector<double> x = {1, 2, 3, 4, 5};
  for (std::int32_t f = 0; f < kNumFormats; ++f) {
    const auto m = AnyFormatMatrix::convert(a, static_cast<Format>(f));
    ASSERT_TRUE(m.has_value());
    std::vector<double> y(5, -1.0), ref(5, 0.0);
    m->spmv(x, y);
    spmv_reference(a, x, ref);
    for (int i = 0; i < 5; ++i)
      EXPECT_DOUBLE_EQ(y[i], ref[i])
          << format_name(static_cast<Format>(f)) << " row " << i;
  }
}

TEST(Edge, SingleRowMatrix) {
  const Csr a = csr_from_triplets(1, 6, {{0, 0, 1.0}, {0, 5, 2.0}});
  std::vector<double> x = {1, 1, 1, 1, 1, 3};
  for (std::int32_t f = 0; f < kNumFormats; ++f) {
    const auto m = AnyFormatMatrix::convert(a, static_cast<Format>(f));
    if (!m) continue;
    std::vector<double> y(1, 0.0);
    m->spmv(x, y);
    EXPECT_DOUBLE_EQ(y[0], 7.0) << format_name(static_cast<Format>(f));
  }
}

TEST(Edge, SingleColumnMatrix) {
  const Csr a = csr_from_triplets(4, 1, {{0, 0, 1.0}, {3, 0, 2.0}});
  std::vector<double> x = {2.0};
  for (std::int32_t f = 0; f < kNumFormats; ++f) {
    const auto m = AnyFormatMatrix::convert(a, static_cast<Format>(f));
    if (!m) continue;
    std::vector<double> y(4, -1.0);
    m->spmv(x, y);
    EXPECT_DOUBLE_EQ(y[0], 2.0);
    EXPECT_DOUBLE_EQ(y[1], 0.0);
    EXPECT_DOUBLE_EQ(y[3], 4.0);
  }
}

TEST(Edge, TallAndWideRectangular) {
  Rng rng(3);
  for (const auto& [r, c] : std::vector<std::pair<index_t, index_t>>{
           {100, 7}, {7, 100}}) {
    const Csr a = gen_uniform_rows(r, c, std::min<index_t>(3, c), 0, rng);
    std::vector<double> x(static_cast<std::size_t>(c), 1.0);
    for (std::int32_t f = 0; f < kNumFormats; ++f) {
      const auto m = AnyFormatMatrix::convert(a, static_cast<Format>(f));
      if (!m) continue;
      std::vector<double> y(static_cast<std::size_t>(r), 0.0);
      std::vector<double> ref(static_cast<std::size_t>(r), 0.0);
      m->spmv(x, y);
      spmv_reference(a, x, ref);
      for (index_t i = 0; i < r; ++i)
        EXPECT_NEAR(y[i], ref[i], 1e-12)
            << format_name(static_cast<Format>(f)) << " " << r << "x" << c;
    }
  }
}

TEST(Edge, FullyDenseMatrix) {
  Rng rng(4);
  const Csr a = gen_uniform_rows(16, 16, 16, 0, rng);
  EXPECT_EQ(a.nnz(), 256);
  std::vector<double> x(16, 0.5), ref(16, 0.0);
  spmv_reference(a, x, ref);
  for (std::int32_t f = 0; f < kNumFormats; ++f) {
    const auto m = AnyFormatMatrix::convert(a, static_cast<Format>(f));
    ASSERT_TRUE(m.has_value()) << format_name(static_cast<Format>(f));
    std::vector<double> y(16, 0.0);
    m->spmv(x, y);
    for (int i = 0; i < 16; ++i) EXPECT_NEAR(y[i], ref[i], 1e-12);
  }
}

TEST(Edge, DiaRefusesScatteredMatrix) {
  // One entry per distinct diagonal → ndiags*rows >> nnz.
  std::vector<Triplet> ts;
  const index_t n = 200;
  for (index_t i = 0; i < n; ++i) ts.push_back({i, (i * 37) % n, 1.0});
  const Csr a = csr_from_triplets(n, n, std::move(ts));
  EXPECT_FALSE(dia_from_csr(a).has_value());
}

TEST(Edge, DiaAcceptsPureDiagonal) {
  const Csr a = diag_matrix(64);
  const auto d = dia_from_csr(a);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->ndiags(), 1);
  EXPECT_EQ(d->offsets[0], 0);
}

TEST(Edge, EllRefusesSingleLongRow) {
  std::vector<Triplet> ts;
  const index_t n = 400;
  for (index_t c = 0; c < n; ++c) ts.push_back({0, c, 1.0});  // dense row 0
  for (index_t r = 1; r < n; ++r) ts.push_back({r, r, 1.0});
  const Csr a = csr_from_triplets(n, n, std::move(ts));
  EXPECT_FALSE(ell_from_csr(a).has_value());
}

TEST(Edge, ZeroNnzMatrixSafeForCooCsr) {
  const Csr a = csr_from_triplets(3, 3, {});
  EXPECT_EQ(a.nnz(), 0);
  std::vector<double> x = {1, 2, 3};
  for (Format f : {Format::kCoo, Format::kCsr, Format::kBsr, Format::kCsr5,
                   Format::kHyb}) {
    const auto m = AnyFormatMatrix::convert(a, f);
    ASSERT_TRUE(m.has_value()) << format_name(f);
    std::vector<double> y(3, 5.0);
    m->spmv(x, y);
    for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(y[i], 0.0);
  }
}

TEST(Edge, ValidateCatchesBadPtr) {
  Csr a = diag_matrix(3);
  a.ptr[1] = 5;  // exceeds nnz
  EXPECT_THROW(a.validate(), std::runtime_error);
}

TEST(Edge, ValidateCatchesUnsortedColumns) {
  Csr a;
  a.rows = 1;
  a.cols = 3;
  a.ptr = {0, 2};
  a.idx = {2, 0};  // unsorted
  a.val = {1.0, 2.0};
  EXPECT_THROW(a.validate(), std::runtime_error);
}

// Every kernel checks both vector sizes before it indexes x or y.
TEST(Edge, SpmvRejectsWrongVectorSizes) {
  const Csr a = diag_matrix(4);
  std::vector<double> x(3, 1.0), y(4, 0.0);
  EXPECT_THROW(spmv_csr(a, x, y), std::runtime_error);
  std::vector<double> x4(4, 1.0), y3(3, 0.0);
  EXPECT_THROW(spmv_csr(a, x4, y3), std::runtime_error);
  std::vector<double> x5(5, 1.0), y5(5, 0.0);
  for (std::int32_t f = 0; f < kNumFormats; ++f) {
    const auto m = AnyFormatMatrix::convert(a, static_cast<Format>(f));
    ASSERT_TRUE(m.has_value());
    const std::string name = format_name(static_cast<Format>(f));
    EXPECT_THROW(m->spmv(x, y), std::runtime_error) << name;
    EXPECT_THROW(m->spmv(x5, y), std::runtime_error) << name;
    EXPECT_THROW(m->spmv(x4, y3), std::runtime_error) << name;
    EXPECT_THROW(m->spmv(x4, y5), std::runtime_error) << name;
  }
}

TEST(Edge, KernelsAreDeterministicAcrossRuns) {
  Rng rng(11);
  const Csr a = gen_powerlaw(200, 200, 10.0, 1.5, rng);
  std::vector<double> x(200);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  for (std::int32_t f = 0; f < kNumFormats; ++f) {
    const auto m = AnyFormatMatrix::convert(a, static_cast<Format>(f));
    if (!m) continue;
    std::vector<double> y1(200, 0.0), y2(200, 0.0);
    m->spmv(x, y1);
    m->spmv(x, y2);
    EXPECT_EQ(y1, y2) << format_name(static_cast<Format>(f));
  }
}

TEST(Edge, BytesAccountingPositiveAndOrdered) {
  Rng rng(12);
  const Csr a = gen_banded(128, 128, 2, 1.0, rng);
  const auto csr = AnyFormatMatrix::convert(a, Format::kCsr);
  const auto coo = AnyFormatMatrix::convert(a, Format::kCoo);
  ASSERT_TRUE(csr && coo);
  EXPECT_GT(csr->bytes(), 0);
  // COO stores explicit row indices → strictly more bytes than CSR here.
  EXPECT_GT(coo->bytes(), csr->bytes());
}

}  // namespace
}  // namespace dnnspmv
