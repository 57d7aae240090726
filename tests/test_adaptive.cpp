// AdaptiveSpmv (library integration, paper §7.6/§8) and amortized
// labelling.
#include "core/adaptive.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

namespace dnnspmv {
namespace {

FormatSelector tiny_selector() {
  CorpusSpec spec;
  spec.count = 80;
  spec.min_dim = 48;
  spec.max_dim = 128;
  const auto corpus = build_corpus(spec);
  const auto platform = make_analytic_cpu(intel_xeon_params());
  const auto labeled = collect_labels(corpus, *platform);
  SelectorOptions opts;
  opts.rep_rows = 16;
  opts.rep_bins = 8;
  opts.train.epochs = 5;
  FormatSelector sel(opts);
  sel.fit(labeled, platform->formats());
  return sel;
}

TEST(AdaptiveSpmv, MatchesReferenceSpmv) {
  const FormatSelector sel = tiny_selector();
  Rng rng(1);
  const Csr a = gen_banded(100, 100, 2, 1.0, rng);
  const AdaptiveSpmv op(sel, a);
  std::vector<double> x(100);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  std::vector<double> y(100, 0.0), ref(100, 0.0);
  op.apply(x, y);
  spmv_reference(a, x, ref);
  for (int i = 0; i < 100; ++i) EXPECT_NEAR(y[i], ref[i], 1e-12);
}

TEST(AdaptiveSpmv, UsesSelectorsCandidateFormat) {
  const FormatSelector sel = tiny_selector();
  Rng rng(2);
  const Csr a = gen_powerlaw(80, 80, 5.0, 1.6, rng);
  const AdaptiveSpmv op(sel, a);
  const auto& cands = sel.candidates();
  const bool in_candidates =
      std::find(cands.begin(), cands.end(), op.format()) != cands.end();
  EXPECT_TRUE(in_candidates || op.fell_back());
}

TEST(AdaptiveSpmv, FallsBackToCsrWhenFormatRefuses) {
  // Scattered permutation matrix: DIA and ELL-hostile-enough via DIA.
  std::vector<Triplet> ts;
  const index_t n = 300;
  for (index_t i = 0; i < n; ++i) ts.push_back({i, (i * 37) % n, 1.0});
  const Csr a = csr_from_triplets(n, n, std::move(ts));
  const AdaptiveSpmv op(a, Format::kDia);  // DIA refuses this matrix
  EXPECT_TRUE(op.fell_back());
  EXPECT_EQ(op.format(), Format::kCsr);
  std::vector<double> x(n, 1.0), y(n, 0.0);
  op.apply(x, y);
  for (index_t i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(y[i], 1.0);
}

TEST(AdaptiveSpmv, ExplicitFormatConstructor) {
  Rng rng(3);
  const Csr a = gen_uniform_rows(50, 50, 4, 0, rng);
  const AdaptiveSpmv op(a, Format::kEll);
  EXPECT_EQ(op.format(), Format::kEll);
  EXPECT_FALSE(op.fell_back());
  EXPECT_EQ(op.rows(), 50);
  EXPECT_GT(op.bytes(), 0);
}

// The cache key names the weights, not the selector object: a selector
// refitted in place misses the entries its old weights filled and answers
// with the new model's pick.
TEST(AdaptiveSpmv, RefitInPlaceMissesTheCache) {
  CorpusSpec spec;
  spec.count = 60;
  spec.min_dim = 48;
  spec.max_dim = 128;
  const auto corpus = build_corpus(spec);
  const auto platform = make_analytic_cpu(intel_xeon_params());
  std::vector<LabeledMatrix> labeled = collect_labels(corpus, *platform);
  SelectorOptions opts;
  opts.rep_rows = 16;
  opts.rep_bins = 8;
  opts.train.epochs = 5;
  FormatSelector sel(opts);
  sel.fit(labeled, platform->formats());

  Rng rng(5);
  const Csr a = gen_banded(120, 120, 2, 1.0, rng);
  PredictionCache cache(16, 2);
  EXPECT_FALSE(AdaptiveSpmv(sel, a, &cache).cache_hit());
  EXPECT_TRUE(AdaptiveSpmv(sel, a, &cache).cache_hit());

  // Relabel everything as one format the old model does not pick for `a`;
  // CSR and COO accept every matrix, so no fallback hides the pick.
  const Format old_pick = sel.predict(a);
  const Format target = old_pick == Format::kCsr ? Format::kCoo : Format::kCsr;
  for (LabeledMatrix& lm : labeled)
    lm.label = sel.candidate_index(target);
  const std::uint64_t old_id = sel.weights_id();
  sel.fit(labeled, platform->formats());
  EXPECT_NE(sel.weights_id(), old_id);
  ASSERT_EQ(sel.predict(a), target);
  const AdaptiveSpmv after(sel, a, &cache);
  EXPECT_FALSE(after.cache_hit());
  EXPECT_EQ(after.format(), target);
  EXPECT_TRUE(AdaptiveSpmv(sel, a, &cache).cache_hit());
}

// Reassigning a selector (load, clone) also gives it weights of a new
// identity, so the cache misses once and then hits again.
TEST(AdaptiveSpmv, ReassignedSelectorMissesTheCache) {
  FormatSelector sel = tiny_selector();
  Rng rng(6);
  const Csr a = gen_powerlaw(90, 90, 4.0, 1.6, rng);
  PredictionCache cache(16, 2);
  const AdaptiveSpmv first(sel, a, &cache);
  const std::string path = ::testing::TempDir() + "/adaptive_reload.bin";
  sel.save(path);
  sel = FormatSelector::load(path);
  std::remove(path.c_str());
  const AdaptiveSpmv reloaded(sel, a, &cache);
  EXPECT_FALSE(reloaded.cache_hit());
  EXPECT_EQ(reloaded.format(), first.format());  // the same weights
  EXPECT_TRUE(AdaptiveSpmv(sel, a, &cache).cache_hit());
  const FormatSelector copy = sel.clone();
  EXPECT_NE(copy.weights_id(), sel.weights_id());
  EXPECT_FALSE(AdaptiveSpmv(copy, a, &cache).cache_hit());
}

TEST(AdaptiveSpmv, CachedConstructionRejectsMalformedMatrix) {
  const FormatSelector sel = tiny_selector();
  Rng rng(7);
  Csr a = gen_banded(40, 40, 1, 1.0, rng);
  ASSERT_GE(a.row_nnz(0), 2);
  std::swap(a.idx[0], a.idx[1]);  // row 0's columns out of order
  PredictionCache cache(16, 2);
  try {
    const AdaptiveSpmv op(sel, a, &cache);
    ADD_FAILURE() << "malformed matrix accepted";
  } catch (const DnnspmvError& e) {
    EXPECT_EQ(e.code(), errc::invalid_argument);
  }
  EXPECT_EQ(cache.size(), 0u);
}

TEST(AdaptiveSpmv, RecordsOneTimeCosts) {
  const FormatSelector sel = tiny_selector();
  Rng rng(4);
  const Csr a = gen_banded(200, 200, 3, 0.9, rng);
  const AdaptiveSpmv op(sel, a);
  EXPECT_GT(op.prediction_seconds(), 0.0);
  EXPECT_GT(op.conversion_seconds(), 0.0);
}

TEST(AmortizedLabels, ConvergeToPlainLabelsWithManyIterations) {
  CorpusSpec spec;
  spec.count = 40;
  spec.min_dim = 64;
  spec.max_dim = 256;
  const auto corpus = build_corpus(spec);
  // Analytic platform: deterministic times, so any label change can only
  // come from the amortized conversion term.
  const auto platform = make_analytic_cpu(intel_xeon_params());
  const auto plain = collect_labels(corpus, *platform);
  const auto amortized =
      collect_labels_amortized(corpus, *platform, 100000000);
  int agree = 0;
  for (std::size_t i = 0; i < plain.size(); ++i)
    agree += plain[i].label == amortized[i].label;
  // Conversion divided by 1e8 iterations is negligible.
  EXPECT_GE(agree, static_cast<int>(plain.size()) - 1);
}

TEST(AmortizedLabels, FewIterationsShiftAwayFromExpensiveBuilds) {
  CorpusSpec spec;
  spec.count = 40;
  spec.min_dim = 64;
  spec.max_dim = 256;
  const auto corpus = build_corpus(spec);
  const auto platform = make_analytic_cpu(intel_xeon_params());
  const auto plain = collect_labels(corpus, *platform);
  const auto amortized = collect_labels_amortized(corpus, *platform, 1);
  // With a single SpMV call, conversion dominates; every amortized time is
  // at least the plain time.
  for (std::size_t i = 0; i < plain.size(); ++i) {
    for (std::size_t f = 0; f < plain[i].format_times.size(); ++f) {
      if (!std::isfinite(plain[i].format_times[f])) continue;
      EXPECT_GE(amortized[i].format_times[f], plain[i].format_times[f]);
    }
  }
}

}  // namespace
}  // namespace dnnspmv
