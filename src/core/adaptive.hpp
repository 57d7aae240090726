// Library-integration path (paper §7.6/§8): the predictive model embedded
// directly into an SpMV operator.
//
// AdaptiveSpmv predicts the best format for a matrix once, converts, and
// then serves y = A*x from the chosen representation. If the predicted
// format refuses the matrix (DIA/ELL padding blow-up) it falls back to
// CSR. The constructor records how long prediction and conversion took so
// callers can reason about amortization ("the 1–3 iterations of overhead
// is negligible compared to the time the better formats help save").
//
// Prediction can be memoized through a caller-owned PredictionCache:
// constructing again from a matrix with the same sparsity pattern then
// skips CNN inference, paying only one O(nnz) walk over `ptr` and `idx`
// that both validates the matrix and hashes it (pattern_key, csr.hpp).
// Entries are keyed by that exact pattern key and the selector's
// weights_id(), so a selector refitted, requantized or reloaded in place
// misses instead of answering with the old weights' pick, and one cache can
// serve several selectors. The cache type lives here in core
// (core/lru_cache.hpp); the serve layer's SelectionService keeps its own
// instance, keyed by structural fingerprint, so this operator needs
// nothing from the serving tier.
#pragma once

#include "core/lru_cache.hpp"
#include "core/selector.hpp"
#include "sparse/spmv.hpp"

namespace dnnspmv {

class AdaptiveSpmv {
 public:
  /// Predicts with `selector`, converts, and owns the stored matrix. The
  /// prediction is memoized through `cache` when one is given; a malformed
  /// matrix then throws errc::invalid_argument.
  AdaptiveSpmv(const FormatSelector& selector, const Csr& matrix,
               PredictionCache* cache = nullptr);

  /// No prediction: stores the matrix in `format` (CSR fallback applies).
  AdaptiveSpmv(const Csr& matrix, Format format)
      : AdaptiveSpmv(matrix, Choice{format}) {}

  /// y = A*x in the chosen format.
  void apply(std::span<const double> x, std::span<double> y) const;

  /// The format actually in use (after any fallback).
  Format format() const { return stored_.format(); }

  /// True when the predicted format refused the matrix and CSR is used.
  bool fell_back() const { return fell_back_; }

  /// True when the prediction came from the cache (no CNN forward ran).
  bool cache_hit() const { return cache_hit_; }

  index_t rows() const { return stored_.rows(); }
  index_t cols() const { return stored_.cols(); }
  std::int64_t bytes() const { return stored_.bytes(); }

  /// One-time costs paid at construction. On a cache hit,
  /// prediction_seconds() is the pattern-key walk and lookup only.
  double prediction_seconds() const { return prediction_seconds_; }
  double conversion_seconds() const { return conversion_seconds_; }

 private:
  /// The format to store and what choosing and converting it cost.
  struct Choice {
    Format format;
    bool cache_hit = false;
    double prediction_seconds = 0.0;
    double conversion_seconds = 0.0;
  };
  static Choice predict(const FormatSelector& selector, const Csr& matrix,
                        PredictionCache* cache);
  /// Converts once, into the chosen format or the CSR fallback.
  AdaptiveSpmv(const Csr& matrix, Choice choice);

  AnyFormatMatrix stored_;
  bool fell_back_ = false;
  bool cache_hit_ = false;
  double prediction_seconds_ = 0.0;
  double conversion_seconds_ = 0.0;
};

}  // namespace dnnspmv
