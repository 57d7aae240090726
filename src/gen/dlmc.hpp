// DLMC-style pruned-weight generators.
//
// The Deep Learning Matrix Collection (Gale et al.) holds the sparse weight
// tensors left behind by pruning transformer/ResNet layers: moderate
// densities (2–50%), near-uniform row lengths for random/magnitude pruning,
// and dense sub-blocks for structured pruning. These matrices feed SpMM
// (activations have K columns), not SpMV, and their format winners differ —
// which is exactly the traffic the op-aware selector has to handle. The
// three generators below synthesize those structure classes at fixed
// densities, mirroring the spmm/spmv split of the upstream `dlmc/`
// benchmark suite.
#pragma once

#include <string>
#include <vector>

#include "gen/corpus.hpp"

namespace dnnspmv {

/// Unstructured random pruning: every weight survives i.i.d. with
/// probability `density`.
Csr gen_pruned_random(index_t rows, index_t cols, double density, Rng& rng);

/// Magnitude pruning: draw a dense N(0,1) weight matrix and keep the top
/// `density` fraction by |w|. Row lengths concentrate around
/// density*cols but fluctuate with the weight draw, like real DLMC layers.
Csr gen_pruned_magnitude(index_t rows, index_t cols, double density,
                         Rng& rng);

/// Structured block pruning: score `block`×`block` tiles by their L2 norm
/// and keep the top `density` fraction of tiles, each kept tile fully
/// dense (the BSR-friendly end of the DLMC spectrum).
Csr gen_pruned_block(index_t rows, index_t cols, index_t block,
                     double density, Rng& rng);

struct DlmcSpec {
  std::int64_t count = 300;
  index_t min_dim = 128;
  index_t max_dim = 1024;
  std::uint64_t seed = 42;
  /// The fixed density grid the collection is published at.
  std::vector<double> densities = {0.5, 0.3, 0.2, 0.1, 0.05, 0.02};
};

/// Builds `spec.count` pruned-weight matrices cycling through the pruning
/// methods and density grid, with log-uniform layer shapes.
std::vector<CorpusEntry> build_dlmc_corpus(const DlmcSpec& spec);

/// Binary corpus (de)serialization so CI can cache the generated slice
/// between runs (keyed on a hash of the generator sources). Returns false
/// on open failure; load also returns false on a corrupt or
/// version-mismatched file, leaving `out` empty: no count sizes anything
/// the file's bytes cannot back, and every matrix passes Csr::validate().
bool save_corpus(const std::string& path,
                 const std::vector<CorpusEntry>& corpus);
bool load_corpus(const std::string& path, std::vector<CorpusEntry>* out);

}  // namespace dnnspmv
