#include "core/adaptive.hpp"

#include <utility>

#include "common/hash.hpp"
#include "common/timer.hpp"
#include "serve/fingerprint.hpp"

namespace dnnspmv {

AnyFormatMatrix AdaptiveSpmv::convert_or_csr(const Csr& matrix,
                                             Format format,
                                             bool& fell_back) {
  auto stored = AnyFormatMatrix::convert(matrix, format);
  if (stored) {
    fell_back = false;
    return std::move(*stored);
  }
  fell_back = true;
  return *AnyFormatMatrix::convert(matrix, Format::kCsr);  // never refuses
}

AdaptiveSpmv::AdaptiveSpmv(const FormatSelector& selector, const Csr& matrix,
                           PredictionCache* cache)
    : stored_(*AnyFormatMatrix::convert(matrix, Format::kCsr)) {
  Timer predict_timer;
  Format pick;
  if (cache) {
    // Same cache key space as the service: structural fingerprint, mixed
    // with the selector's identity so two models never share entries.
    const std::uint64_t key = hash_combine(
        structural_fingerprint(matrix),
        reinterpret_cast<std::uintptr_t>(&selector));
    std::int32_t idx = 0;
    if (cache->get(key, idx)) {
      cache_hit_ = true;
      pick = selector.candidates()[static_cast<std::size_t>(idx)];
    } else {
      idx = selector.predict_index(matrix);
      cache->put(key, idx);
      pick = selector.candidates()[static_cast<std::size_t>(idx)];
    }
  } else {
    pick = selector.predict(matrix);
  }
  prediction_seconds_ = predict_timer.seconds();
  Timer convert_timer;
  stored_ = convert_or_csr(matrix, pick, fell_back_);
  conversion_seconds_ = convert_timer.seconds();
}

AdaptiveSpmv::AdaptiveSpmv(const Csr& matrix, Format format)
    : stored_(*AnyFormatMatrix::convert(matrix, Format::kCsr)) {
  Timer convert_timer;
  stored_ = convert_or_csr(matrix, format, fell_back_);
  conversion_seconds_ = convert_timer.seconds();
}

void AdaptiveSpmv::apply(std::span<const double> x,
                         std::span<double> y) const {
  stored_.spmv(x, y);
}

}  // namespace dnnspmv
