#include "sparse/dia.hpp"

#include <algorithm>
#include <map>

#include "common/error.hpp"

namespace dnnspmv {

std::optional<Dia> dia_from_csr(const Csr& a, double max_fill) {
  // slot[c - r + rows - 1]: the diagonal slot of offset c - r, or -1 where
  // no nonzero lies on that diagonal. Slots follow offset order.
  std::vector<index_t> slot(static_cast<std::size_t>(a.rows) + a.cols, -1);
  for (index_t r = 0; r < a.rows; ++r)
    for (std::int64_t j = a.ptr[r]; j < a.ptr[r + 1]; ++j)
      slot[static_cast<std::size_t>(a.idx[j] - r + a.rows - 1)] = 0;
  std::vector<index_t> offsets;
  for (std::size_t k = 0; k < slot.size(); ++k)
    if (slot[k] == 0) {
      slot[k] = static_cast<index_t>(offsets.size());
      offsets.push_back(
          static_cast<index_t>(static_cast<std::int64_t>(k) - a.rows + 1));
    }
  const double padded = static_cast<double>(offsets.size()) * a.rows;
  if (a.nnz() > 0 && padded > max_fill * static_cast<double>(a.nnz()))
    return std::nullopt;

  Dia m;
  m.rows = a.rows;
  m.cols = a.cols;
  m.offsets = std::move(offsets);
  m.data.assign(m.offsets.size() * static_cast<std::size_t>(a.rows), 0.0);
  for (index_t r = 0; r < a.rows; ++r) {
    const index_t* d = slot.data() + (a.rows - 1 - r);  // d[c]: slot of (r, c)
    for (std::int64_t j = a.ptr[r]; j < a.ptr[r + 1]; ++j)
      m.data[static_cast<std::size_t>(d[a.idx[j]]) * a.rows + r] = a.val[j];
  }
  return m;
}

Csr csr_from_dia(const Dia& a) {
  std::vector<Triplet> ts;
  for (std::size_t d = 0; d < a.offsets.size(); ++d) {
    const index_t off = a.offsets[d];
    for (index_t r = 0; r < a.rows; ++r) {
      const index_t c = r + off;
      if (c < 0 || c >= a.cols) continue;
      const double v = a.data[d * a.rows + r];
      if (v != 0.0) ts.push_back({r, c, v});
    }
  }
  return csr_from_triplets(a.rows, a.cols, std::move(ts));
}

namespace {

// Rows per block: a thread owns a block's outputs, 4 KB that stay in L1
// while every diagonal streams its slice of the block past them.
constexpr index_t kDiaBlock = 512;

}  // namespace

void spmv_dia(const Dia& a, std::span<const double> x, std::span<double> y) {
  DNNSPMV_CHECK(x.size() == static_cast<std::size_t>(a.cols));
  DNNSPMV_CHECK(y.size() == static_cast<std::size_t>(a.rows));
  const index_t* offsets = a.offsets.data();
  const std::size_t ndiags = a.offsets.size();
  const double* diags = a.data.data();
  const auto rows = static_cast<std::size_t>(a.rows);
  const index_t cols = a.cols;
  const double* xv = x.data();
  double* yv = y.data();
  const index_t nblocks = (a.rows + kDiaBlock - 1) / kDiaBlock;
  // Each row starts at 0.0 and takes its diagonals in offset order.
#pragma omp parallel for schedule(static)
  for (index_t b = 0; b < nblocks; ++b) {
    const index_t r0 = b * kDiaBlock;
    const index_t r1 = std::min(a.rows, r0 + kDiaBlock);
    for (index_t i = r0; i < r1; ++i) yv[i] = 0.0;
    for (std::size_t d = 0; d < ndiags; ++d) {
      const index_t off = offsets[d];
      const index_t lo = std::max(r0, -off);
      const index_t hi = std::min(r1, cols - off);  // exclusive
      const double* diag = diags + d * rows;
      for (index_t i = lo; i < hi; ++i) yv[i] += diag[i] * xv[i + off];
    }
  }
}

}  // namespace dnnspmv
