#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace dnnspmv {

void Csr::validate() const {
  DNNSPMV_CHECK(rows >= 0 && cols >= 0);
  DNNSPMV_CHECK_MSG(ptr.size() == static_cast<std::size_t>(rows) + 1,
                    "ptr size " << ptr.size() << " != rows+1");
  DNNSPMV_CHECK(ptr.front() == 0);
  DNNSPMV_CHECK(ptr.back() == nnz());
  DNNSPMV_CHECK(idx.size() == val.size());
  for (index_t r = 0; r < rows; ++r) {
    DNNSPMV_CHECK_MSG(ptr[r] <= ptr[r + 1] && ptr[r + 1] <= nnz(),
                      "ptr not monotone or past nnz at row " << r);
    for (std::int64_t j = ptr[r]; j < ptr[r + 1]; ++j) {
      DNNSPMV_CHECK_MSG(idx[j] >= 0 && idx[j] < cols,
                        "column " << idx[j] << " out of range in row " << r);
      if (j > ptr[r])
        DNNSPMV_CHECK_MSG(idx[j] > idx[j - 1],
                          "unsorted/duplicate column in row " << r);
    }
  }
}

std::int64_t Csr::bytes() const {
  return static_cast<std::int64_t>(val.size() * sizeof(double) +
                                   idx.size() * sizeof(index_t) +
                                   ptr.size() * sizeof(std::int64_t));
}

Csr csr_from_triplets(index_t rows, index_t cols,
                      std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    DNNSPMV_CHECK_MSG(t.row >= 0 && t.row < rows && t.col >= 0 && t.col < cols,
                      "triplet (" << t.row << ',' << t.col
                                  << ") out of bounds " << rows << 'x'
                                  << cols);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  Csr m;
  m.rows = rows;
  m.cols = cols;
  m.ptr.assign(static_cast<std::size_t>(rows) + 1, 0);
  m.idx.reserve(triplets.size());
  m.val.reserve(triplets.size());
  for (std::size_t i = 0; i < triplets.size(); ++i) {
    const Triplet& t = triplets[i];
    if (!m.idx.empty() && i > 0 && triplets[i - 1].row == t.row &&
        triplets[i - 1].col == t.col) {
      m.val.back() += t.val;  // merge duplicates
    } else {
      m.idx.push_back(t.col);
      m.val.push_back(t.val);
      ++m.ptr[t.row + 1];
    }
  }
  for (index_t r = 0; r < rows; ++r) m.ptr[r + 1] += m.ptr[r];
  return m;
}

void spmv_csr(const Csr& a, std::span<const double> x, std::span<double> y) {
  DNNSPMV_CHECK(x.size() == static_cast<std::size_t>(a.cols));
  DNNSPMV_CHECK(y.size() == static_cast<std::size_t>(a.rows));
  const std::int64_t* ptr = a.ptr.data();
  const index_t* idx = a.idx.data();
  const double* val = a.val.data();
  const double* xv = x.data();
  double* yv = y.data();
#pragma omp parallel for schedule(dynamic, 64)
  for (index_t i = 0; i < a.rows; ++i) {
    double acc = 0.0;
    for (std::int64_t j = ptr[i]; j < ptr[i + 1]; ++j)
      acc += val[j] * xv[idx[j]];
    yv[i] = acc;
  }
}

void spmv_reference(const Csr& a, std::span<const double> x,
                    std::span<double> y) {
  DNNSPMV_CHECK(x.size() == static_cast<std::size_t>(a.cols));
  DNNSPMV_CHECK(y.size() == static_cast<std::size_t>(a.rows));
  for (index_t i = 0; i < a.rows; ++i) {
    double acc = 0.0;
    for (std::int64_t j = a.ptr[i]; j < a.ptr[i + 1]; ++j)
      acc += a.val[j] * x[static_cast<std::size_t>(a.idx[j])];
    y[static_cast<std::size_t>(i)] = acc;
  }
}

bool csr_equal(const Csr& a, const Csr& b, double tol) {
  if (a.rows != b.rows || a.cols != b.cols || a.nnz() != b.nnz()) return false;
  if (a.ptr != b.ptr || a.idx != b.idx) return false;
  for (std::size_t i = 0; i < a.val.size(); ++i)
    if (std::fabs(a.val[i] - b.val[i]) > tol) return false;
  return true;
}

Csr csr_transpose(const Csr& a) {
  Csr t;
  t.rows = a.cols;
  t.cols = a.rows;
  t.ptr.assign(static_cast<std::size_t>(a.cols) + 1, 0);
  t.idx.resize(a.idx.size());
  t.val.resize(a.val.size());
  for (index_t c : a.idx) ++t.ptr[c + 1];
  for (index_t c = 0; c < a.cols; ++c) t.ptr[c + 1] += t.ptr[c];
  std::vector<std::int64_t> cursor(t.ptr.begin(), t.ptr.end() - 1);
  for (index_t r = 0; r < a.rows; ++r) {
    for (std::int64_t j = a.ptr[r]; j < a.ptr[r + 1]; ++j) {
      const std::int64_t dst = cursor[a.idx[j]]++;
      t.idx[dst] = r;
      t.val[dst] = a.val[j];
    }
  }
  return t;
}

}  // namespace dnnspmv
