#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace dnnspmv {

void Csr::validate() const { pattern_key(*this); }

namespace {

// One multiply-xorshift round. For a fixed word it is a bijection of the
// state, so two walks that differ in one word end in different keys.
inline std::uint64_t mix_word(std::uint64_t h, std::uint64_t v) {
  h = (h ^ v) * 0x9fb21c651e98df25ULL;
  return h ^ (h >> 28);
}

}  // namespace

std::uint64_t pattern_key(const Csr& a) {
  DNNSPMV_CHECK_ERRC(a.rows >= 0 && a.cols >= 0, errc::invalid_argument,
                     "negative dimensions " << a.rows << 'x' << a.cols);
  DNNSPMV_CHECK_ERRC(a.ptr.size() == static_cast<std::size_t>(a.rows) + 1,
                     errc::invalid_argument,
                     "ptr size " << a.ptr.size() << " != rows+1");
  DNNSPMV_CHECK_ERRC(a.idx.size() == a.val.size(), errc::invalid_argument,
                     "idx size " << a.idx.size() << " != val size "
                                 << a.val.size());
  const std::int64_t nnz = a.nnz();
  DNNSPMV_CHECK_ERRC(a.ptr.front() == 0 && a.ptr.back() == nnz,
                     errc::invalid_argument,
                     "ptr must run from 0 to nnz " << nnz);
  const std::int64_t* ptr = a.ptr.data();
  const index_t* idx = a.idx.data();
  std::uint64_t h = mix_word(mix_word(static_cast<std::uint64_t>(a.rows),
                                      static_cast<std::uint64_t>(a.cols)),
                             static_cast<std::uint64_t>(nnz));
  for (index_t r = 0; r < a.rows; ++r) {
    const std::int64_t end = ptr[r + 1];
    DNNSPMV_CHECK_ERRC(ptr[r] <= end && end <= nnz, errc::invalid_argument,
                       "ptr not monotone or past nnz at row " << r);
    h = mix_word(h, static_cast<std::uint64_t>(end));
    // Columns must rise strictly from -1, so only the row's last one needs
    // the upper bound. Two columns per hashed word.
    index_t prev = -1;
    bool bad = false;
    std::int64_t j = ptr[r];
    for (; j + 1 < end; j += 2) {
      const index_t c0 = idx[j], c1 = idx[j + 1];
      bad |= (c0 <= prev) | (c1 <= c0);
      prev = c1;
      const std::uint64_t lo = static_cast<std::uint32_t>(c0);
      const std::uint64_t hi = static_cast<std::uint32_t>(c1);
      h = mix_word(h, lo | hi << 32);
    }
    if (j < end) {
      bad |= idx[j] <= prev;
      prev = idx[j];
      h = mix_word(h, static_cast<std::uint32_t>(prev));
    }
    DNNSPMV_CHECK_ERRC(!bad && prev < a.cols, errc::invalid_argument,
                       "row " << r << ": column out of range or out of order");
  }
  return splitmix64(h);
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
