// Edge cases for the sparse substrate: empty rows, degenerate shapes,
// refusal conditions, and kernel determinism.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <tuple>

#include "common/error.hpp"
#include "gen/corpus.hpp"
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

// --- pattern_key: validation walk and exact pattern key --------------------

errc key_error(const Csr& a) {
  try {
    (void)pattern_key(a);
    return errc::ok;
  } catch (const DnnspmvError& e) {
    return e.code();
  }
}

// A 3x4 matrix with two nonzeros per row, then one defect per case.
TEST(PatternKey, RejectsEveryClassOfMalformedCsr) {
  const Csr good = [] {
    Csr a;
    a.rows = 3;
    a.cols = 4;
    a.ptr = {0, 2, 4, 6};
    a.idx = {0, 2, 1, 3, 0, 3};
    a.val = {1, 2, 3, 4, 5, 6};
    return a;
  }();
  ASSERT_EQ(key_error(good), errc::ok);
  using Defect = std::function<void(Csr&)>;
  const std::pair<const char*, Defect> cases[] = {
      {"negative rows", [](Csr& a) { a.rows = -1; }},
      {"negative cols", [](Csr& a) { a.cols = -1; }},
      {"ptr too short", [](Csr& a) { a.ptr.pop_back(); }},
      {"ptr too long", [](Csr& a) { a.ptr.push_back(6); }},
      {"ptr not from 0", [](Csr& a) { a.ptr[0] = 1; }},
      {"ptr not to nnz", [](Csr& a) { a.ptr[3] = 5; }},
      {"ptr not monotone", [](Csr& a) { a.ptr[2] = 1; }},
      {"ptr past nnz", [](Csr& a) { a.ptr[2] = 7; }},
      {"idx/val sizes", [](Csr& a) { a.val.pop_back(); }},
      {"negative column", [](Csr& a) { a.idx[0] = -1; }},
      {"column past cols", [](Csr& a) { a.idx[5] = 4; }},
      {"unsorted columns", [](Csr& a) { std::swap(a.idx[2], a.idx[3]); }},
      {"duplicate column", [](Csr& a) { a.idx[1] = 0; }},
  };
  for (const auto& [what, defect] : cases) {
    Csr a = good;
    defect(a);
    EXPECT_EQ(key_error(a), errc::invalid_argument) << what;
    EXPECT_THROW(a.validate(), DnnspmvError) << what;
  }
}

bool same_pattern(const Csr& a, const Csr& b) {
  return a.rows == b.rows && a.cols == b.cols && a.ptr == b.ptr &&
         a.idx == b.idx;
}

// Over a corpus of structure-class matrices and their augmented
// derivatives, plus a value-only copy and a one-column variant of each,
// two keys are equal exactly when the patterns are.
TEST(PatternKey, KeysAreEqualExactlyWhenPatternsAre) {
  CorpusSpec spec;
  spec.count = 512;
  spec.min_dim = 48;
  spec.max_dim = 256;
  spec.seed = 7;
  std::vector<Csr> pool;
  for (CorpusEntry& e : build_corpus(spec)) {
    Csr values = e.matrix;
    for (double& v : values.val) v = -2.0 * v + 1.0;
    pool.push_back(std::move(values));
    // The last nonzero moved one column left when that leaves a pattern.
    Csr moved = e.matrix;
    for (index_t r = moved.rows; r-- > 0;) {
      const std::int64_t j = moved.ptr[r + 1] - 1;
      if (j < moved.ptr[r] || moved.idx[j] == 0) continue;
      if (j > moved.ptr[r] && moved.idx[j - 1] == moved.idx[j] - 1) continue;
      --moved.idx[j];
      pool.push_back(std::move(moved));
      break;
    }
    pool.push_back(std::move(e.matrix));
  }
  // Key equality implies pattern equality: no two distinct patterns share
  // a key.
  std::map<std::uint64_t, const Csr*> by_key;
  for (const Csr& a : pool) {
    const auto [it, fresh] = by_key.emplace(pattern_key(a), &a);
    EXPECT_TRUE(fresh || same_pattern(*it->second, a))
        << "distinct patterns share a key";
  }
  // As many keys as patterns, so equal patterns share their key. Every
  // matrix's value-only copy makes such a pair.
  const auto pattern_less = [](const Csr* a, const Csr* b) {
    return std::tie(a->rows, a->cols, a->ptr, a->idx) <
           std::tie(b->rows, b->cols, b->ptr, b->idx);
  };
  std::set<const Csr*, decltype(pattern_less)> patterns(pattern_less);
  for (const Csr& a : pool) patterns.insert(&a);
  EXPECT_EQ(by_key.size(), patterns.size());
  EXPECT_LE(patterns.size() + static_cast<std::size_t>(spec.count),
            pool.size());
}

}  // namespace
}  // namespace dnnspmv
