// SpMM kernels (sparse/spmm.hpp): every format against the dense
// reference over a generator × format × K grid (K = 1, full register
// panels and ragged tails included), the bitwise-parity contract with
// SpMV (K = 1, and every lane at any K), empty-row handling, and shape
// validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/error.hpp"
#include "gen/generators.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmv.hpp"

namespace dnnspmv {
namespace {

Csr make_matrix(int gen_id, std::uint64_t seed) {
  Rng rng(seed);
  switch (gen_id) {
    case 0: return gen_banded(60, 60, 3, 0.8, rng);
    case 1: return gen_multidiag(70, 70, 5, 0.9, rng);
    case 2: return gen_uniform_rows(50, 64, 6, 1, rng);
    case 3: return gen_powerlaw(64, 80, 5.0, 1.6, rng);
    case 4: return gen_block(48, 52, 3.0, 0.95, rng);
    case 5: return gen_hypersparse(100, 90, 25, rng);  // mostly empty rows
    case 6: return gen_dense_rows(60, 60, 4, 3, 40, rng);
    case 7: return gen_rmat(6, 300, 0.45, 0.22, 0.22, rng);
    default: return gen_uniform_rows(10, 10, 2, 0, rng);
  }
}

std::vector<double> random_panel(index_t rows, index_t k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(rows) *
                        static_cast<std::size_t>(k));
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  return x;
}

// Pins the OpenMP team to one thread for the guard's lifetime: atomic
// accumulation (COO boundary rows, CSR5 partial tiles) is only
// deterministic single-threaded.
class OneThread {
 public:
#ifdef _OPENMP
  OneThread() : saved_(omp_get_max_threads()) { omp_set_num_threads(1); }
  ~OneThread() { omp_set_num_threads(saved_); }

 private:
  int saved_;
#endif
};

// (generator, format, K): K covers the SpMV-degenerate case (1), ragged
// widths no vector lane divides (3, 7), whole register panels (16 lanes
// without AVX2, 32 with it; 32 is also the serving-typical width), and a
// panel plus a one-lane tail (33).
class SpmmGrid
    : public ::testing::TestWithParam<std::tuple<int, std::int32_t, int>> {};

TEST_P(SpmmGrid, MatchesDenseReference) {
  const auto [gen_id, fmt_id, k] = GetParam();
  const Csr a = make_matrix(gen_id, 4000 + static_cast<std::uint64_t>(gen_id));
  const auto m = AnyFormatMatrix::convert(a, static_cast<Format>(fmt_id));
  if (!m) {
    const Format f = static_cast<Format>(fmt_id);
    EXPECT_TRUE(f == Format::kDia || f == Format::kEll);
    return;
  }
  const std::vector<double> x =
      random_panel(a.cols, k, 900 + static_cast<std::uint64_t>(k));
  std::vector<double> y(
      static_cast<std::size_t>(a.rows) * static_cast<std::size_t>(k), -99.0);
  std::vector<double> ref(y.size(), 0.0);
  m->spmm(x, y, k);
  spmm_reference(a, x, ref, k);
  for (std::size_t i = 0; i < y.size(); ++i)
    ASSERT_NEAR(y[i], ref[i], 1e-10 * (1.0 + std::fabs(ref[i])))
        << "lane " << i << " format "
        << format_name(static_cast<Format>(fmt_id)) << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SpmmGrid,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Range(0, kNumFormats),
                       ::testing::Values(1, 3, 7, 16, 32, 33)));

// At K = 1 every kernel must reproduce its SpMV sibling bit for bit: the
// per-lane accumulation order is shared by construction.
TEST(Spmm, KEqualsOneIsBitwiseSpmv) {
  OneThread one_thread;
  for (int gen_id = 0; gen_id < 8; ++gen_id) {
    const Csr a =
        make_matrix(gen_id, 5000 + static_cast<std::uint64_t>(gen_id));
    const std::vector<double> x =
        random_panel(a.cols, 1, 31 + static_cast<std::uint64_t>(gen_id));
    for (std::int32_t f = 0; f < kNumFormats; ++f) {
      const auto m = AnyFormatMatrix::convert(a, static_cast<Format>(f));
      if (!m) continue;
      std::vector<double> y_mv(static_cast<std::size_t>(a.rows), -1.0);
      std::vector<double> y_mm(static_cast<std::size_t>(a.rows), -2.0);
      m->spmv(x, y_mv);
      m->spmm(x, y_mm, 1);
      EXPECT_EQ(0, std::memcmp(y_mv.data(), y_mm.data(),
                               y_mv.size() * sizeof(double)))
          << "gen " << gen_id << " format "
          << format_name(static_cast<Format>(f));
    }
  }
}

// A lane's arithmetic does not depend on K: lane c of spmm(X) is, bit for
// bit, spmv on column c of X. For both register-panel widths (32 lanes
// with AVX2, 16 without) the K list has pure tails (1, 3, 7), whole
// panels (16 or 32, and 64) and panels plus a tail (17, 33, 48).
TEST(Spmm, EveryLaneIsBitwiseSpmvOfItsColumn) {
  OneThread one_thread;
  for (int gen_id = 0; gen_id < 8; ++gen_id) {
    const Csr a =
        make_matrix(gen_id, 6000 + static_cast<std::uint64_t>(gen_id));
    for (const index_t k : {1, 3, 7, 16, 17, 32, 33, 48, 64}) {
      const std::vector<double> x = random_panel(
          a.cols, k, 77 + static_cast<std::uint64_t>(gen_id * 100 + k));
      for (std::int32_t f = 0; f < kNumFormats; ++f) {
        const auto m = AnyFormatMatrix::convert(a, static_cast<Format>(f));
        if (!m) continue;
        std::vector<double> y_mm(static_cast<std::size_t>(a.rows) * k, -2.0);
        m->spmm(x, y_mm, k);
        std::vector<double> x_col(static_cast<std::size_t>(a.cols));
        std::vector<double> y_mv(static_cast<std::size_t>(a.rows));
        std::vector<double> y_lane(y_mv.size());
        for (index_t c = 0; c < k; ++c) {
          for (index_t j = 0; j < a.cols; ++j)
            x_col[static_cast<std::size_t>(j)] =
                x[static_cast<std::size_t>(j) * k + c];
          std::fill(y_mv.begin(), y_mv.end(), -1.0);
          m->spmv(x_col, y_mv);
          for (index_t i = 0; i < a.rows; ++i)
            y_lane[static_cast<std::size_t>(i)] =
                y_mm[static_cast<std::size_t>(i) * k + c];
          ASSERT_EQ(0, std::memcmp(y_mv.data(), y_lane.data(),
                                   y_mv.size() * sizeof(double)))
              << "gen " << gen_id << " format "
              << format_name(static_cast<Format>(f)) << " k=" << k
              << " lane " << c;
        }
      }
    }
  }
}

// Leading, interior, and trailing empty rows must produce exact zero
// panels — formats that scatter (COO, CSR5) as well as row-driven ones.
TEST(Spmm, EmptyRowsYieldZeroPanels) {
  std::vector<Triplet> t = {{1, 0, 2.0}, {1, 3, -1.0}, {4, 2, 0.5}};
  const Csr a = csr_from_triplets(6, 5, t);  // rows 0, 2, 3, 5 empty
  const index_t k = 4;
  const std::vector<double> x = random_panel(a.cols, k, 7);
  std::vector<double> ref(static_cast<std::size_t>(a.rows) * k, 0.0);
  spmm_reference(a, x, ref, k);
  for (std::int32_t f = 0; f < kNumFormats; ++f) {
    const auto m = AnyFormatMatrix::convert(a, static_cast<Format>(f));
    if (!m) continue;
    std::vector<double> y(ref.size(), -99.0);
    m->spmm(x, y, k);
    for (const index_t row : {0, 2, 3, 5})
      for (index_t c = 0; c < k; ++c)
        EXPECT_EQ(0.0, y[static_cast<std::size_t>(row) * k + c])
            << "format " << format_name(static_cast<Format>(f));
    for (std::size_t i = 0; i < y.size(); ++i)
      EXPECT_NEAR(y[i], ref[i], 1e-12)
          << "format " << format_name(static_cast<Format>(f));
  }
}

TEST(Spmm, RejectsMisshapenPanels) {
  Rng rng(11);
  const Csr a = gen_uniform_rows(8, 10, 3, 0, rng);
  std::vector<double> x(static_cast<std::size_t>(a.cols) * 4);
  std::vector<double> y(static_cast<std::size_t>(a.rows) * 4);
  EXPECT_THROW(spmm_csr(a, x, y, 0), DnnspmvError);   // k < 1
  EXPECT_THROW(spmm_csr(a, x, y, 3), DnnspmvError);   // x/y sized for k=4
  std::vector<double> y_short(y.size() - 1);
  EXPECT_THROW(spmm_csr(a, x, y_short, 4), DnnspmvError);
}

// The wide-K case that makes SpMM its own workload: a K=64 panel through
// the dispatching AnyFormatMatrix::spmm on a larger matrix.
TEST(Spmm, WidePanelThroughDispatch) {
  Rng rng(19);
  const Csr a = gen_powerlaw(200, 160, 6.0, 1.5, rng);
  const index_t k = 64;
  const std::vector<double> x = random_panel(a.cols, k, 23);
  std::vector<double> ref(static_cast<std::size_t>(a.rows) * k, 0.0);
  spmm_reference(a, x, ref, k);
  for (std::int32_t f = 0; f < kNumFormats; ++f) {
    const auto m = AnyFormatMatrix::convert(a, static_cast<Format>(f));
    if (!m) continue;
    std::vector<double> y(ref.size(), 0.0);
    m->spmm(x, y, k);
    double max_err = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i)
      max_err = std::max(max_err, std::fabs(y[i] - ref[i]));
    EXPECT_LT(max_err, 1e-9)
        << "format " << format_name(static_cast<Format>(f));
  }
}

}  // namespace
}  // namespace dnnspmv
