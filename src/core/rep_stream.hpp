// Streaming sampled representation builder — the allocation-free miss path.
//
// make_inputs (core/represent.hpp) materializes the paper's fixed-size CNN
// representations with one full O(nnz) pass *per source tensor* plus fresh
// Tensor allocations per request. That is the admission-time cost the serve
// tier pays on every cache miss. StreamingRepBuilder replaces it with:
//
//  * one single streaming pass that fills every source tensor of the mode
//    at once (row + column histograms share the pass; binary + density
//    share the pass);
//  * bounded-sample streaming: above `sample_nnz` nonzeros, the pass walks
//    a deterministic strided subset of chunks (kRepSampleChunk consecutive
//    nonzeros per sampled chunk, chunk stride chosen so ~sample_nnz
//    elements are touched) and rescales counts by nnz/sampled — so the
//    build is O(sample + rows) instead of O(nnz). The chunk phase is
//    seeded from the matrix's structural identity (rows, cols, nnz — the
//    same fields the serve-tier structural fingerprint anchors on), so the
//    same matrix always samples the same nonzeros: train-time and
//    serve-time representations are bit-identical, and repeated requests
//    are deterministic.
//  * AVX2 histogram binning behind the DNNSPMV_SIMD build switch (the
//    scalar kernel otherwise): distances and bin candidates for eight
//    nonzeros at a time, with an exact integer correction step so SIMD,
//    scalar, and the exact builders agree bitwise.
//  * arena-backed buffers: build_into() accumulates raw counts in
//    TensorArena slots and writes outputs into caller-owned tensors via
//    ensure2(), so steady-state builds perform zero heap allocation.
//
// Exactness contract: with sampling disabled — sample_nnz <= 0, or
// nnz <= sample_nnz — the output is bitwise identical to
// make_inputs(a, mode, rep_rows, rep_bins). The exact builder stays the
// reference oracle (tests/test_rep_stream.cpp holds the two together).
#pragma once

#include <cstdint>
#include <vector>

#include "core/represent.hpp"
#include "sparse/csr.hpp"
#include "tensor/arena.hpp"
#include "tensor/tensor.hpp"

namespace dnnspmv {

/// Nonzeros examined per sampled chunk. Chunks keep the sampled elements
/// in cache-friendly SIMD-friendly runs instead of scattering single
/// strided picks.
inline constexpr std::int64_t kRepSampleChunk = 32;

/// Default sampling budget: matrices up to this many nonzeros are built
/// exactly; larger ones are estimated from ~this many sampled nonzeros.
inline constexpr std::int64_t kDefaultRepSampleNnz = 1 << 15;

/// Deterministic per-matrix sampling seed, derived from the structural
/// identity fields (rows, cols, nnz) that also anchor the serve tier's
/// structural fingerprint. O(1), so the builder never needs a stats pass.
std::uint64_t rep_sample_seed(std::int64_t rows, std::int64_t cols,
                              std::int64_t nnz);

struct RepStreamOptions {
  RepMode mode = RepMode::kHistogram;
  std::int64_t rep_rows = 32;  // rows of the representation
  std::int64_t rep_bins = 16;  // histogram bins (ignored for binary/density)
  // Sampling budget: <= 0 disables sampling (always exact, still single
  // pass + arena-backed).
  std::int64_t sample_nnz = kDefaultRepSampleNnz;
  // Runtime switch for the AVX2 binning kernel (no effect in a build
  // without it). Off forces the scalar kernel — benches and the
  // SIMD-vs-scalar equality test flip this.
  bool use_simd = true;
};

class StreamingRepBuilder {
 public:
  explicit StreamingRepBuilder(RepStreamOptions opts);

  const RepStreamOptions& options() const { return opts_; }

  /// True when a matrix with `nnz` nonzeros would be sampled rather than
  /// walked exactly.
  bool will_sample(std::int64_t nnz) const {
    return opts_.sample_nnz > 0 && nnz > opts_.sample_nnz;
  }

  /// Builds all source tensors of the mode into `out` (resized to
  /// rep_num_sources(mode); each tensor ensure2()d and fully overwritten).
  /// Raw count accumulation uses arena slots keyed by this builder, so a
  /// warm (arena, out) pair makes the whole call allocation-free. NOT
  /// thread-safe through a shared arena — use one arena per thread
  /// (thread_arena()).
  void build_into(const Csr& a, TensorArena& arena,
                  std::vector<Tensor>& out) const;

  /// Allocating convenience wrapper over build_into (scratch from the
  /// calling thread's arena): what FormatSelector::prepare_inputs uses.
  std::vector<Tensor> build(const Csr& a) const;

 private:
  RepStreamOptions opts_;
};

}  // namespace dnnspmv
