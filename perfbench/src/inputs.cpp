#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/hash.hpp"
#include "gen/dlmc.hpp"
#include "gen/generators.hpp"

namespace perfbench {

using namespace dnnspmv;

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t tag) {
  return hash_combine(seed * 0x9e3779b97f4a7c15ULL + 1, tag);
}

ModelInputs make_model_inputs(std::uint64_t seed) {
  ModelInputs in;
  CorpusSpec spec;
  spec.count = 640;
  spec.min_dim = 48;
  spec.max_dim = 256;
  spec.seed = sub_seed(seed, 1);
  in.spmv_corpus = build_corpus(spec);
  DlmcSpec dspec;
  dspec.count = 96;
  dspec.min_dim = 64;
  dspec.max_dim = 256;
  dspec.seed = sub_seed(seed, 2);
  in.spmm_corpus = build_dlmc_corpus(dspec);
  return in;
}

std::vector<Csr> structure_pool(std::int64_t count, int min_dim, int max_dim,
                                std::uint64_t seed) {
  CorpusSpec spec;
  spec.count = count;
  spec.min_dim = min_dim;
  spec.max_dim = max_dim;
  spec.seed = seed;
  std::vector<Csr> out;
  for (CorpusEntry& e : build_corpus(spec))
    if (e.matrix.nnz() > 0) out.push_back(std::move(e.matrix));
  return out;
}

namespace {

index_t log_uniform(Rng& rng, double lo, double hi) {
  return static_cast<index_t>(
      std::exp(rng.uniform(std::log(lo), std::log(hi))));
}

index_t at_least_one(double v) {
  return static_cast<index_t>(std::max(1.0, std::round(v)));
}

// One structure-class matrix sized so its nonzero count lands near
// `nnz`: the class is drawn uniformly, and its density parameter is
// solved from the drawn dimension.
Csr sized_structure_matrix(std::int64_t nnz, Rng& rng) {
  const index_t m = log_uniform(rng, 4096, 16384);
  const double per_row = static_cast<double>(nnz) / m;
  switch (rng.uniform_int(0, 5)) {
    case 0: {
      const double fill = rng.uniform(0.8, 1.0);
      return gen_banded(m, m, at_least_one((per_row / fill - 1) / 2), fill,
                        rng);
    }
    case 1: {
      const double fill = rng.uniform(0.8, 1.0);
      return gen_multidiag(m, m, at_least_one(per_row / fill), fill, rng);
    }
    case 2:
      return gen_uniform_rows(m, m, at_least_one(per_row),
                              static_cast<index_t>(rng.uniform_int(0, 2)),
                              rng);
    case 3:
      return gen_powerlaw(m, m, per_row, rng.uniform(1.3, 2.5), rng);
    case 4: {
      const double fill = rng.uniform(0.8, 1.0);
      return gen_block(m, m, per_row / (4.0 * fill), fill, rng);
    }
    default:
      return gen_dense_rows(m, m, at_least_one(per_row * 0.8),
                            static_cast<index_t>(rng.uniform_int(2, 8)),
                            at_least_one(std::min<double>(m, 0.02 * nnz)),
                            rng);
  }
}

}  // namespace

std::vector<Csr> payoff_spmv_pool(std::int64_t count, std::int64_t target_nnz,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Csr> out;
  for (std::int64_t i = 0; i < count; ++i) {
    const auto nnz = static_cast<std::int64_t>(
        static_cast<double>(target_nnz) * rng.uniform(0.85, 1.15));
    out.push_back(sized_structure_matrix(nnz, rng));
  }
  return out;
}

std::vector<Csr> payoff_spmm_pool(std::int64_t count, std::int64_t target_nnz,
                                  std::uint64_t seed) {
  static constexpr double kDensities[] = {0.05, 0.1, 0.2, 0.3, 0.5};
  Rng rng(seed);
  std::vector<Csr> out;
  for (std::int64_t i = 0; i < count; ++i) {
    const double density = kDensities[i % 5];
    const double area = static_cast<double>(target_nnz) / density;
    const index_t m = log_uniform(rng, std::max(128.0, area / 1024),
                                  std::min(1024.0, area / 128));
    const index_t n = std::clamp<index_t>(
        static_cast<index_t>(area / m), 128, 1024);
    const double u = rng.uniform();
    if (u < 0.35)
      out.push_back(gen_pruned_random(m, n, density, rng));
    else if (u < 0.7)
      out.push_back(gen_pruned_magnitude(m, n, density, rng));
    else
      out.push_back(
          gen_pruned_block(m, n, rng.bernoulli(0.5) ? 4 : 8, density, rng));
  }
  return out;
}

std::vector<std::int32_t> zipf_order(std::int32_t n, std::int64_t length,
                                     std::int64_t segment, Rng& rng) {
  std::vector<double> cdf(static_cast<std::size_t>(n));
  double acc = 0.0;
  for (std::int32_t k = 0; k < n; ++k) cdf[k] = acc += 1.0 / (k + 1);
  for (double& c : cdf) c /= acc;
  std::vector<std::int32_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  std::vector<std::int32_t> order(static_cast<std::size_t>(length));
  for (std::int64_t i = 0; i < length; ++i) {
    if (i % segment == 0) std::shuffle(perm.begin(), perm.end(), rng);
    const auto rank =
        std::lower_bound(cdf.begin(), cdf.end(), rng.uniform()) - cdf.begin();
    order[static_cast<std::size_t>(i)] =
        perm[static_cast<std::size_t>(std::min<std::ptrdiff_t>(rank, n - 1))];
  }
  return order;
}

std::vector<double> dense_operand(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

}  // namespace perfbench
