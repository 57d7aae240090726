// In-memory dataset container for labelled training samples.
//
// A Dataset stores, per sample, the normalized input representations (a
// fixed number of equally-shaped tensors — e.g. row histogram + column
// histogram), the hand-crafted feature vector for the DT baseline, the
// per-format measured/modelled SpMV times, and the label (best format id).
// Datasets are built from labelled matrices (build_dataset) each run and
// never written to disk: the trained selector's weight file is what
// persists.
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/format.hpp"
#include "tensor/tensor.hpp"

namespace dnnspmv {

struct Sample {
  std::vector<Tensor> inputs;        // one per CNN source
  std::vector<double> features;      // DT feature vector
  std::vector<double> format_times;  // seconds per candidate format (inf =
                                     // format refused the matrix)
  std::int32_t label = 0;            // index into the candidate format list
  std::int32_t gen_class = -1;       // generator class tag (analysis only)
};

struct Dataset {
  std::vector<Format> candidates;  // the format list labels index into
  std::vector<Sample> samples;

  std::size_t size() const { return samples.size(); }

  /// Per-class sample counts ("Ground Truth" column of Tables 2/3).
  std::vector<std::int64_t> label_histogram() const;

  /// Index-based subset (for cross-validation folds).
  Dataset subset(const std::vector<std::int32_t>& indices) const;
};

}  // namespace dnnspmv
