// Mini-batch CNN training loop (paper Figure 3, step 4).
#pragma once

#include <cstdint>
#include <vector>

#include "core/model_zoo.hpp"
#include "io/dataset.hpp"

namespace dnnspmv {

struct TrainConfig {
  int epochs = 15;
  int batch = 32;
  double lr = 1e-3;
  std::uint64_t seed = 123;
  bool verbose = false;
};

struct TrainHistory {
  std::vector<double> step_loss;   // cross-entropy per optimizer step
  std::vector<double> epoch_loss;  // mean loss per epoch
};

/// Builds the NCHW batch tensors from one input set per sample. When the
/// network has a single tower but samples carry several sources (early
/// merging), the sources are stacked as channels.
std::vector<Tensor> assemble_batch(
    const std::vector<const std::vector<Tensor>*>& samples, int net_inputs);

/// The same for dataset samples `idx`.
std::vector<Tensor> assemble_batch(const Dataset& data,
                                   const std::vector<std::int32_t>& idx,
                                   int net_inputs);

/// Trains in place with Adam through head `head`; respects frozen
/// parameters. When every tower parameter is frozen (top evolvement), each
/// sample's CNN codes are computed once and every step trains the head
/// alone, with the same result bit for bit; this needs towers that hold no
/// dropout, as build_cnn's towers never do.
TrainHistory train_cnn(MergeNet& net, const Dataset& data,
                       int net_inputs, const TrainConfig& cfg,
                       std::size_t head = 0);

/// Argmax predictions for every sample, in batches of `batch`.
std::vector<std::int32_t> predict_cnn(MergeNet& net, const Dataset& data,
                                      int net_inputs, int batch = 64);

/// Fraction of samples predicted correctly.
double accuracy_cnn(MergeNet& net, const Dataset& data, int net_inputs);

}  // namespace dnnspmv
