// Seeded input generation. Everything a run feeds the library — training
// corpora, request pools, request orders and solve jobs — is made here from
// the --seed argument, before any timing starts.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "gen/corpus.hpp"
#include "sparse/csr.hpp"

namespace perfbench {

using dnnspmv::CorpusEntry;
using dnnspmv::Csr;
using dnnspmv::Rng;

/// Independent stream `tag` of the run seed.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t tag);

/// Training data of the shared model: structure-class matrices for the
/// SpMV head and a DLMC-style pruned-weight slice for the SpMM head.
struct ModelInputs {
  std::vector<CorpusEntry> spmv_corpus;
  std::vector<CorpusEntry> spmm_corpus;
};
ModelInputs make_model_inputs(std::uint64_t seed);

/// Structure-class matrices (the eight generator classes plus augmented
/// derivatives), dims log-uniform in [min_dim, max_dim]. Augmentation can
/// crop a matrix down to no nonzeros; those are dropped, so the pool can
/// come out slightly smaller than `count`.
std::vector<Csr> structure_pool(std::int64_t count, int min_dim, int max_dim,
                                std::uint64_t seed);

/// Large structure-class matrices for solve-payoff SpMV jobs: dims
/// 4096–16384 with about `target_nnz` nonzeros each.
std::vector<Csr> payoff_spmv_pool(std::int64_t count, std::int64_t target_nnz,
                                  std::uint64_t seed);

/// DLMC-style matrices for solve-payoff SpMM jobs: dims 128–1024 with about
/// `target_nnz` nonzeros each.
std::vector<Csr> payoff_spmm_pool(std::int64_t count, std::int64_t target_nnz,
                                  std::uint64_t seed);

/// `length` draws from Zipf(1) over ranks 0..n-1, mapped through a seeded
/// permutation so the popular items are random pool members. Popularity
/// drifts: the permutation is re-drawn every `segment` draws, so a run
/// averages over many hot sets instead of hinging on one.
std::vector<std::int32_t> zipf_order(std::int32_t n, std::int64_t length,
                                     std::int64_t segment, Rng& rng);

/// Dense operand of `n` values uniform in [-1, 1).
std::vector<double> dense_operand(std::size_t n, Rng& rng);

}  // namespace perfbench
