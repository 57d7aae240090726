// ELLPACK format: fixed-width rows, column-major storage for vectorized /
// coalesced access. Conversion fails when padding would exceed `max_fill`
// times the nnz footprint (a long densest row makes ELL hopeless).
//
// spmv_ell computes 16-row blocks, one slot (ELL column) at a time, so each
// step reads 16 contiguous indices and values. Each row still sums its
// live slots in slot order from 0.0, skipping padding, so the result is
// bitwise the row-by-row walk.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "sparse/csr.hpp"

namespace dnnspmv {

struct Ell {
  index_t rows = 0;
  index_t cols = 0;
  index_t width = 0;              // max nonzeros per row
  std::vector<index_t> col;       // width*rows, column-major: col[w*rows+i]
  std::vector<double> data;       // same layout; padding has col=-1, data=0

  std::int64_t bytes() const {
    return static_cast<std::int64_t>(data.size() * sizeof(double) +
                                     col.size() * sizeof(index_t));
  }
};

constexpr double kEllMaxFill = 10.0;

std::optional<Ell> ell_from_csr(const Csr& a, double max_fill = kEllMaxFill);
Csr csr_from_ell(const Ell& a);

void spmv_ell(const Ell& a, std::span<const double> x, std::span<double> y);

}  // namespace dnnspmv
