#include "io/dataset.hpp"

#include "common/error.hpp"

namespace dnnspmv {

std::vector<std::int64_t> Dataset::label_histogram() const {
  std::vector<std::int64_t> h(candidates.size(), 0);
  for (const Sample& s : samples) {
    DNNSPMV_CHECK(s.label >= 0 &&
                  s.label < static_cast<std::int32_t>(candidates.size()));
    ++h[static_cast<std::size_t>(s.label)];
  }
  return h;
}

Dataset Dataset::subset(const std::vector<std::int32_t>& indices) const {
  Dataset out;
  out.candidates = candidates;
  out.samples.reserve(indices.size());
  for (std::int32_t i : indices) {
    DNNSPMV_CHECK(i >= 0 && static_cast<std::size_t>(i) < samples.size());
    out.samples.push_back(samples[static_cast<std::size_t>(i)]);
  }
  return out;
}

}  // namespace dnnspmv
