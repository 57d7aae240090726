#include "core/adaptive.hpp"

#include <utility>

#include "common/hash.hpp"
#include "common/timer.hpp"

namespace dnnspmv {

namespace {

// `format` when it accepts the matrix, else CSR (which never refuses);
// `seconds` receives the conversion time.
AnyFormatMatrix convert_or_csr(const Csr& matrix, Format format,
                               double& seconds) {
  Timer timer;
  auto stored = AnyFormatMatrix::convert(matrix, format);
  if (!stored) stored = AnyFormatMatrix::convert(matrix, Format::kCsr);
  seconds = timer.seconds();
  return std::move(*stored);
}

}  // namespace

AdaptiveSpmv::Choice AdaptiveSpmv::predict(const FormatSelector& selector,
                                           const Csr& matrix,
                                           PredictionCache* cache) {
  Timer timer;
  Choice p{Format::kCsr};
  if (cache) {
    // The exact pattern, validated in the same walk, under the identity of
    // the weights: other weights, even in the same selector, never share
    // an entry.
    const std::uint64_t key =
        hash_combine(pattern_key(matrix), selector.weights_id());
    std::int32_t idx = 0;
    p.cache_hit = cache->get(key, idx);
    if (!p.cache_hit) {
      idx = selector.predict_index(matrix);
      cache->put(key, idx);
    }
    p.format = selector.candidates()[static_cast<std::size_t>(idx)];
  } else {
    p.format = selector.predict(matrix);
  }
  p.prediction_seconds = timer.seconds();
  return p;
}

AdaptiveSpmv::AdaptiveSpmv(const FormatSelector& selector, const Csr& matrix,
                           PredictionCache* cache)
    : AdaptiveSpmv(matrix, predict(selector, matrix, cache)) {}

// stored_ is declared first, so its conversion has written
// choice.conversion_seconds before conversion_seconds_ reads it.
AdaptiveSpmv::AdaptiveSpmv(const Csr& matrix, Choice choice)
    : stored_(convert_or_csr(matrix, choice.format, choice.conversion_seconds)),
      fell_back_(stored_.format() != choice.format),
      cache_hit_(choice.cache_hit),
      prediction_seconds_(choice.prediction_seconds),
      conversion_seconds_(choice.conversion_seconds) {}

void AdaptiveSpmv::apply(std::span<const double> x,
                         std::span<double> y) const {
  stored_.spmv(x, y);
}

}  // namespace dnnspmv
