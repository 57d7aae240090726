// Compressed Sparse Row — the canonical in-memory representation.
//
// Every other format converts from Csr; generators and I/O produce Csr.
// Indices within a row are kept sorted and duplicate-free (validate()
// enforces this), which conversions rely on.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace dnnspmv {

using index_t = std::int32_t;

struct Triplet {
  index_t row;
  index_t col;
  double val;
};

struct Csr {
  index_t rows = 0;
  index_t cols = 0;
  std::vector<std::int64_t> ptr;  // size rows+1
  std::vector<index_t> idx;       // size nnz, sorted within each row
  std::vector<double> val;        // size nnz

  std::int64_t nnz() const { return static_cast<std::int64_t>(idx.size()); }

  std::int64_t row_nnz(index_t r) const { return ptr[r + 1] - ptr[r]; }

  /// Throws errc::invalid_argument if the structure is inconsistent (bad
  /// ptr, unsorted or out-of-range columns, duplicates): pattern_key's walk.
  void validate() const;

  /// Storage footprint in bytes (values + indices + row pointers).
  std::int64_t bytes() const;
};

/// 64-bit key of the sparsity pattern: dimensions, `ptr` and `idx`, not
/// the values. Equal patterns give equal keys; distinct ones share a key
/// only by hash collision. The same walk makes validate()'s checks, before
/// any index is used, and throws errc::invalid_argument on a malformed
/// matrix.
std::uint64_t pattern_key(const Csr& a);

/// Builds a Csr from unordered triplets; duplicates are summed.
Csr csr_from_triplets(index_t rows, index_t cols,
                      std::vector<Triplet> triplets);

/// y = A*x. x.size() == cols, y.size() == rows. OpenMP over rows.
void spmv_csr(const Csr& a, std::span<const double> x, std::span<double> y);

/// Dense reference y = A*x computed without the format machinery (test oracle).
void spmv_reference(const Csr& a, std::span<const double> x,
                    std::span<double> y);

/// Structural + value equality.
bool csr_equal(const Csr& a, const Csr& b, double tol = 0.0);

/// A^T as a new Csr.
Csr csr_transpose(const Csr& a);

}  // namespace dnnspmv
