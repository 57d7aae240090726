// SpMV kernels of the padded formats (ELL, DIA, HYB) against inline scalar
// references that spell out each kernel's documented per-row order: a row
// starts at 0.0 and adds its products one at a time, multiply then add,
// ELL padding skipped, DIA diagonals in offset order, HYB's COO tail added
// serially in entry order on top of the ELL rows. Kernels that keep that
// order are bitwise equal to the references at any OpenMP team size (every
// output row is owned by one thread), whatever row blocking they use.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/rng.hpp"
#include "sparse/dia.hpp"
#include "sparse/ell.hpp"
#include "sparse/hyb.hpp"

namespace dnnspmv {
namespace {

using Vec = std::vector<double>;

Vec ell_reference(const Ell& a, const Vec& x) {
  Vec y(static_cast<std::size_t>(a.rows));
  for (index_t i = 0; i < a.rows; ++i) {
    double acc = 0.0;
    for (index_t w = 0; w < a.width; ++w) {
      const std::size_t e = static_cast<std::size_t>(w) * a.rows + i;
      if (a.col[e] >= 0)
        acc += a.data[e] * x[static_cast<std::size_t>(a.col[e])];
    }
    y[static_cast<std::size_t>(i)] = acc;
  }
  return y;
}

// Every in-range slot of every diagonal is multiplied, stored zeros too.
Vec dia_reference(const Dia& a, const Vec& x) {
  Vec y(static_cast<std::size_t>(a.rows));
  for (index_t i = 0; i < a.rows; ++i) {
    double acc = 0.0;
    for (std::size_t d = 0; d < a.offsets.size(); ++d) {
      const index_t j = i + a.offsets[d];
      if (j >= 0 && j < a.cols)
        acc += a.data[d * static_cast<std::size_t>(a.rows) + i] *
               x[static_cast<std::size_t>(j)];
    }
    y[static_cast<std::size_t>(i)] = acc;
  }
  return y;
}

Vec hyb_reference(const Hyb& a, const Vec& x) {
  Vec y = ell_reference(a.ell, x);
  for (std::int64_t e = 0; e < a.coo.nnz(); ++e)
    y[static_cast<std::size_t>(a.coo.row[e])] +=
        a.coo.val[e] * x[static_cast<std::size_t>(a.coo.col[e])];
  return y;
}

// Bitwise equality, except that two NaNs match whatever their payloads:
// IEEE 754 leaves open which NaN operand an add propagates, and compilers
// may commute one.
::testing::AssertionResult same_bits(const Vec& got, const Vec& want) {
  if (got.size() != want.size())
    return ::testing::AssertionFailure() << "size " << got.size() << " vs "
                                         << want.size();
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::isnan(got[i]) && std::isnan(want[i])) continue;
    if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0)
      return ::testing::AssertionFailure()
             << "row " << i << ": " << got[i] << " vs " << want[i];
  }
  return ::testing::AssertionSuccess();
}

// Runs `body` with a one-thread OpenMP team, then with the default team.
template <class Body>
void with_each_team(const Body& body) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  body("one thread");
  omp_set_num_threads(saved);
#endif
  body("default team");
}

// A few diagonals with random dropout, so row lengths vary (rows end in
// ELL padding) and DIA stores zeros inside its diagonals. Columns in
// `holes` get no entry.
Csr ragged_band(index_t rows, index_t cols, std::uint64_t seed,
                const std::set<index_t>& holes = {}) {
  Rng rng(seed);
  std::set<index_t> offsets = {-7, -2, 0, 1, 3, 9};
  if (cols > rows) offsets.insert(cols - rows);  // reach a wide matrix's end
  std::vector<Triplet> ts;
  for (index_t i = 0; i < rows; ++i)
    for (const index_t off : offsets) {
      const index_t j = i + off;
      if (j < 0 || j >= cols || holes.count(j) || rng.uniform() < 0.3)
        continue;
      ts.push_back({i, j, rng.uniform(-1.0, 1.0)});
    }
  return csr_from_triplets(rows, cols, std::move(ts));
}

Vec random_x(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vec x(static_cast<std::size_t>(n));
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  return x;
}

bool some_row_ends_in_padding(const Ell& a) {
  if (a.width < 2) return false;
  const std::size_t last = static_cast<std::size_t>(a.width - 1) * a.rows;
  for (index_t i = 0; i < a.rows; ++i)
    if (a.col[static_cast<std::size_t>(i)] >= 0 && a.col[last + i] < 0)
      return true;
  return false;
}

// Checks spmv_ell, spmv_dia and spmv_hyb (its default split, and width 1 for
// a long COO tail) on `a` and `x`, with each team. DIA and ELL are built with
// no fill cap so every shape reaches their kernels.
void expect_parity(const Csr& a, const Vec& x) {
  const auto ell = ell_from_csr(a, std::numeric_limits<double>::infinity());
  const auto dia = dia_from_csr(a, std::numeric_limits<double>::infinity());
  ASSERT_TRUE(ell && dia);
  const Hyb hyb = hyb_from_csr(a);
  const Hyb hyb1 = hyb_from_csr(a, 1);
  const Vec ell_ref = ell_reference(*ell, x);
  const Vec dia_ref = dia_reference(*dia, x);
  const Vec hyb_ref = hyb_reference(hyb, x);
  const Vec hyb1_ref = hyb_reference(hyb1, x);
  with_each_team([&](const char* team) {
    SCOPED_TRACE(team);
    Vec y(static_cast<std::size_t>(a.rows), -99.0);
    spmv_ell(*ell, x, y);
    EXPECT_TRUE(same_bits(y, ell_ref)) << "ELL";
    std::fill(y.begin(), y.end(), -99.0);
    spmv_dia(*dia, x, y);
    EXPECT_TRUE(same_bits(y, dia_ref)) << "DIA";
    std::fill(y.begin(), y.end(), -99.0);
    spmv_hyb(hyb, x, y);
    EXPECT_TRUE(same_bits(y, hyb_ref)) << "HYB";
    std::fill(y.begin(), y.end(), -99.0);
    spmv_hyb(hyb1, x, y);
    EXPECT_TRUE(same_bits(y, hyb1_ref)) << "HYB width 1";
  });
}

enum class Shape { kSquare, kTall, kWide };

index_t cols_for(index_t rows, Shape shape) {
  switch (shape) {
    case Shape::kSquare: return rows;
    case Shape::kTall: return rows / 3 + 1;
    case Shape::kWide: return 2 * rows + 5;
  }
  return rows;
}

const char* shape_name(Shape shape) {
  switch (shape) {
    case Shape::kSquare: return "square";
    case Shape::kTall: return "tall";
    case Shape::kWide: return "wide";
  }
  return "unknown";
}

// Row counts straddle every row-block size the kernels use (16-row ELL
// blocks, ~512-row DIA blocks) and leave ragged last blocks; each runs
// square, tall (rows > cols) and wide (cols > rows).
class SpmvParityGrid
    : public ::testing::TestWithParam<std::tuple<index_t, Shape>> {};

TEST_P(SpmvParityGrid, EllDiaHybAreBitwiseTheirRowOrder) {
  const auto [rows, shape] = GetParam();
  const index_t cols = cols_for(rows, shape);
  const Csr a = ragged_band(rows, cols, 100 + static_cast<std::uint64_t>(rows));
  if (rows >= 15) {
    const auto ell = ell_from_csr(a, std::numeric_limits<double>::infinity());
    ASSERT_TRUE(ell);
    EXPECT_TRUE(some_row_ends_in_padding(*ell));
  }
  expect_parity(a, random_x(cols, 7 + static_cast<std::uint64_t>(cols)));
}

INSTANTIATE_TEST_SUITE_P(
    RowBlocks, SpmvParityGrid,
    ::testing::Combine(::testing::Values(1, 15, 16, 17, 511, 512, 513, 1100),
                       ::testing::Values(Shape::kSquare, Shape::kTall,
                                         Shape::kWide)),
    [](const ::testing::TestParamInfo<SpmvParityGrid::ParamType>& info) {
      return std::to_string(std::get<0>(info.param)) + "_" +
             shape_name(std::get<1>(info.param));
    });

// No nonzeros: ELL width 0 with rows > 0 (and HYB an all-padding slab of
// width 1), with and without columns to read. Every row is an exact 0.0.
TEST(SpmvParity, EmptyMatricesWriteZeroRows) {
  for (const index_t rows : {1, 16, 17, 40})
    for (const index_t cols : {0, 5}) {
      SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
      const Csr a = csr_from_triplets(rows, cols, {});
      const auto ell = ell_from_csr(a);
      ASSERT_TRUE(ell);
      EXPECT_EQ(ell->width, 0);
      expect_parity(a, Vec(static_cast<std::size_t>(cols), 1.0));
    }
}

// x holds NaN and ±inf at columns no stored entry references, column 0
// among them, so only ELL padding slots could reach them. Padding is
// skipped, not multiplied, so every ELL and HYB row stays finite. DIA
// multiplies the zeros it stores inside its diagonals, as the references
// do, so its rows crossing those columns turn NaN.
TEST(SpmvParity, PaddingNeverReadsX) {
  for (const index_t rows : {16, 17, 513}) {
    SCOPED_TRACE(rows);
    const index_t cols = rows + 3;
    const std::set<index_t> holes = {0, cols / 2, cols - 1};
    const Csr a =
        ragged_band(rows, cols, 300 + static_cast<std::uint64_t>(rows), holes);
    Vec x = random_x(cols, 9);
    const double poison[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
    int p = 0;
    for (const index_t c : holes) x[static_cast<std::size_t>(c)] = poison[p++];
    expect_parity(a, x);

    const auto ell = ell_from_csr(a);
    ASSERT_TRUE(ell);
    EXPECT_TRUE(some_row_ends_in_padding(*ell));
    const Hyb hyb = hyb_from_csr(a);
    with_each_team([&](const char* team) {
      SCOPED_TRACE(team);
      Vec y(static_cast<std::size_t>(rows));
      spmv_ell(*ell, x, y);
      for (const double v : y) ASSERT_TRUE(std::isfinite(v)) << "ELL";
      spmv_hyb(hyb, x, y);
      for (const double v : y) ASSERT_TRUE(std::isfinite(v)) << "HYB";
    });
    const auto dia = dia_from_csr(a);
    ASSERT_TRUE(dia);
    const Vec dia_ref = dia_reference(*dia, x);
    EXPECT_TRUE(std::any_of(dia_ref.begin(), dia_ref.end(),
                            [](double v) { return std::isnan(v); }));
  }
}

}  // namespace
}  // namespace dnnspmv
