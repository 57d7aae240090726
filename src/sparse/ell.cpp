#include "sparse/ell.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#ifdef DNNSPMV_SIMD
#include <immintrin.h>
#endif

#include "common/error.hpp"

namespace dnnspmv {

std::optional<Ell> ell_from_csr(const Csr& a, double max_fill) {
  std::int64_t width = 0;
  for (index_t r = 0; r < a.rows; ++r)
    width = std::max(width, a.row_nnz(r));
  const double padded = static_cast<double>(width) * a.rows;
  if (a.nnz() > 0 && padded > max_fill * static_cast<double>(a.nnz()))
    return std::nullopt;

  Ell m;
  m.rows = a.rows;
  m.cols = a.cols;
  m.width = static_cast<index_t>(width);
  m.col.assign(static_cast<std::size_t>(width) * a.rows, -1);
  m.data.assign(static_cast<std::size_t>(width) * a.rows, 0.0);
  for (index_t r = 0; r < a.rows; ++r) {
    std::int64_t w = 0;
    for (std::int64_t j = a.ptr[r]; j < a.ptr[r + 1]; ++j, ++w) {
      m.col[static_cast<std::size_t>(w) * a.rows + r] = a.idx[j];
      m.data[static_cast<std::size_t>(w) * a.rows + r] = a.val[j];
    }
  }
  return m;
}

Csr csr_from_ell(const Ell& a) {
  std::vector<Triplet> ts;
  for (index_t r = 0; r < a.rows; ++r) {
    for (index_t w = 0; w < a.width; ++w) {
      const index_t c = a.col[static_cast<std::size_t>(w) * a.rows + r];
      if (c < 0) continue;
      ts.push_back({r, c, a.data[static_cast<std::size_t>(w) * a.rows + r]});
    }
  }
  return csr_from_triplets(a.rows, a.cols, std::move(ts));
}

namespace {

// Rows per block: one thread owns a block's outputs, held in registers
// while the block's slots stream past one ELL column at a time.
constexpr index_t kEllBlock = 16;

// Computes kEllBlock consecutive rows: `col` and `val` point at the first
// row's slot 0 (slot w lies w * rows further on), `yb` at its output. Each
// row starts at 0.0 and takes its slots in order, a multiply then an add;
// a padding slot leaves the row's accumulator as it was. So every row is
// bitwise the per-row walk that spmv_ell runs on the ragged last block.
void ell_block(const index_t* col, const double* val, std::size_t rows,
               index_t width, const double* xv, double* yb) {
#ifdef DNNSPMV_SIMD
  __m256d acc[kEllBlock / 4];
  for (__m256d& a : acc) a = _mm256_setzero_pd();
  for (index_t w = 0; w < width; ++w, col += rows, val += rows)
    for (int p = 0; p < kEllBlock / 4; ++p) {
      const __m128i c =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(col + 4 * p));
      // All-ones in the 64-bit lanes whose slot is live (col >= 0); the
      // gather reads nothing for the others.
      const __m256d live = _mm256_castsi256_pd(
          _mm256_cvtepi32_epi64(_mm_cmpgt_epi32(c, _mm_set1_epi32(-1))));
      const __m256d xc =
          _mm256_mask_i32gather_pd(_mm256_setzero_pd(), xv, c, live, 8);
      const __m256d sum = _mm256_add_pd(
          acc[p], _mm256_mul_pd(_mm256_loadu_pd(val + 4 * p), xc));
      acc[p] = _mm256_blendv_pd(acc[p], sum, live);
    }
  for (int p = 0; p < kEllBlock / 4; ++p) _mm256_storeu_pd(yb + 4 * p, acc[p]);
#else
  // A `?:` select here compiles back into the padding branch; the bit
  // select keeps the walk branch-free. Padding reads x[0] (the caller
  // guarantees cols > 0) and discards the product.
  double acc[kEllBlock] = {};
  for (index_t w = 0; w < width; ++w, col += rows, val += rows)
    for (int r = 0; r < kEllBlock; ++r) {
      const index_t c = col[r];
      const std::uint64_t live = 0 - static_cast<std::uint64_t>(c >= 0);
      const double sum = acc[r] + val[r] * xv[c & static_cast<index_t>(live)];
      acc[r] = std::bit_cast<double>(
          (std::bit_cast<std::uint64_t>(sum) & live) |
          (std::bit_cast<std::uint64_t>(acc[r]) & ~live));
    }
  for (int r = 0; r < kEllBlock; ++r) yb[r] = acc[r];
#endif
}

}  // namespace

void spmv_ell(const Ell& a, std::span<const double> x, std::span<double> y) {
  DNNSPMV_CHECK(x.size() == static_cast<std::size_t>(a.cols));
  DNNSPMV_CHECK(y.size() == static_cast<std::size_t>(a.rows));
  const index_t* col = a.col.data();
  const double* val = a.data.data();
  const auto rows = static_cast<std::size_t>(a.rows);
  const double* xv = x.data();
  double* yv = y.data();
  if (a.cols == 0) {  // no column to read: every slot is padding
    std::fill(y.begin(), y.end(), 0.0);
    return;
  }
  const index_t nblocks = (a.rows + kEllBlock - 1) / kEllBlock;
#pragma omp parallel for schedule(static)
  for (index_t b = 0; b < nblocks; ++b) {
    const index_t r0 = b * kEllBlock;
    if (a.rows - r0 >= kEllBlock) {
      ell_block(col + r0, val + r0, rows, a.width, xv, yv + r0);
      continue;
    }
    // The ragged last block: row by row, down each row's slots.
    for (index_t i = r0; i < a.rows; ++i) {
      double acc = 0.0;
      for (auto e = static_cast<std::size_t>(i); e < a.col.size(); e += rows)
        if (col[e] >= 0) acc += val[e] * xv[col[e]];
      yv[i] = acc;
    }
  }
}

}  // namespace dnnspmv
