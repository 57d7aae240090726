// FallbackSelector — the degraded answer path of SelectionService.
//
// Under overload the service stops paying for CNN inference on new misses
// and answers from structural statistics instead (the load-shedding idea:
// a cheap heuristic fallback still captures most of the format-selection
// win, and an answer now beats a better answer after the client timed
// out — cf. Stylianou & Weiland, arXiv 2303.05098, and the paper's own §6
// argument that selection must stay cheap relative to SpMV).
//
// The answer comes from hand rules over MatrixStats mirroring the classic
// format folklore: dense few-diagonal structure → DIA, uniform row lengths
// → ELL, heavy row imbalance → HYB/COO, else CSR. predict_index costs
// O(1) on stats the service has already computed for the fingerprint, so
// a degraded answer does zero extra passes over the matrix.
#pragma once

#include <vector>

#include "sparse/format.hpp"
#include "sparse/stats.hpp"

namespace dnnspmv {

class FallbackSelector {
 public:
  /// Selector choosing among `candidates` (a service passes its
  /// FormatSelector's candidate list, so indices line up with the CNN's).
  explicit FallbackSelector(std::vector<Format> candidates);

  /// Candidate index for a matrix with statistics `s`. Never throws;
  /// always returns a valid index.
  std::int32_t predict_index(const MatrixStats& s) const;
  Format predict(const MatrixStats& s) const;

  const std::vector<Format>& candidates() const { return candidates_; }

 private:
  /// Index of `f` in candidates_, or of kCsr, or 0 — always answerable.
  std::int32_t index_or_default(Format f) const;

  std::vector<Format> candidates_;
};

}  // namespace dnnspmv
