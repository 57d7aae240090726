#include "serve/fallback.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dnnspmv {

FallbackSelector::FallbackSelector(std::vector<Format> candidates)
    : candidates_(std::move(candidates)) {
  DNNSPMV_CHECK_ERRC(!candidates_.empty(), errc::invalid_argument,
                     "FallbackSelector needs at least one candidate format");
}

std::int32_t FallbackSelector::index_or_default(Format f) const {
  const auto find = [&](Format want) -> std::int32_t {
    const auto it = std::find(candidates_.begin(), candidates_.end(), want);
    return it == candidates_.end()
               ? -1
               : static_cast<std::int32_t>(it - candidates_.begin());
  };
  std::int32_t idx = find(f);
  if (idx < 0) idx = find(Format::kCsr);
  return idx < 0 ? 0 : idx;
}

std::int32_t FallbackSelector::predict_index(const MatrixStats& s) const {
  // Classic structural folklore, cheapest-to-strongest signal first. The
  // thresholds are intentionally conservative: when no structure stands
  // out, CSR is the safe general-purpose answer.
  if (s.ndiags > 0 && s.ndiags <= 12 && s.dia_fill >= 0.5)
    return index_or_default(Format::kDia);
  if (s.row_nnz_cv <= 0.4 && s.ell_fill >= 0.7)
    return index_or_default(Format::kEll);
  if (s.max_over_mean >= 10.0) {
    // Heavy row imbalance: HYB splits the fat rows off when available,
    // otherwise COO avoids ELL/CSR-style row-parallel imbalance.
    const std::int32_t hyb = index_or_default(Format::kHyb);
    if (candidates_[static_cast<std::size_t>(hyb)] == Format::kHyb) return hyb;
    return index_or_default(Format::kCoo);
  }
  return index_or_default(Format::kCsr);
}

Format FallbackSelector::predict(const MatrixStats& s) const {
  return candidates_[static_cast<std::size_t>(predict_index(s))];
}

}  // namespace dnnspmv
