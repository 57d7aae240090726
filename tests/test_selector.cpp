// End-to-end FormatSelector: fit on a small labelled corpus, predict better
// than chance, survive save/load, and migrate across platforms.
#include "core/selector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <future>

#include "common/error.hpp"
#include "core/model_registry.hpp"
#include "serve/batcher.hpp"
#include "serve/fingerprint.hpp"

namespace dnnspmv {
namespace {

struct SmallPipeline {
  std::vector<CorpusEntry> corpus;
  std::unique_ptr<Platform> platform;
  std::vector<LabeledMatrix> labeled;

  SmallPipeline() {
    CorpusSpec spec;
    spec.count = 120;
    spec.min_dim = 48;
    spec.max_dim = 192;
    spec.seed = 11;
    corpus = build_corpus(spec);
    platform = make_analytic_cpu(intel_xeon_params());
    labeled = collect_labels(corpus, *platform);
  }
};

SelectorOptions fast_options() {
  SelectorOptions opts;
  opts.mode = RepMode::kHistogram;
  opts.rep_rows = 16;
  opts.rep_bins = 8;
  opts.train.epochs = 10;
  opts.train.batch = 16;
  opts.train.lr = 2e-3;
  return opts;
}

TEST(Selector, FitAndBeatMajorityBaseline) {
  SmallPipeline p;
  FormatSelector sel(fast_options());
  sel.fit(p.labeled, p.platform->formats());
  ASSERT_TRUE(sel.trained());

  // Training-set accuracy must beat always-predict-the-majority-class.
  std::vector<std::int64_t> counts(p.platform->formats().size(), 0);
  std::int64_t correct = 0;
  for (const auto& lm : p.labeled) {
    ++counts[static_cast<std::size_t>(lm.label)];
    if (sel.predict_index(*lm.matrix) == lm.label) ++correct;
  }
  const auto majority = *std::max_element(counts.begin(), counts.end());
  EXPECT_GT(correct, majority);
}

TEST(Selector, PredictReturnsCandidateFormat) {
  SmallPipeline p;
  FormatSelector sel(fast_options());
  sel.fit(p.labeled, p.platform->formats());
  const Format f = sel.predict(p.corpus[0].matrix);
  const auto& cands = sel.candidates();
  EXPECT_NE(std::find(cands.begin(), cands.end(), f), cands.end());
}

TEST(Selector, SaveLoadPredictsIdentically) {
  SmallPipeline p;
  FormatSelector sel(fast_options());
  sel.fit(p.labeled, p.platform->formats());
  const std::string path = ::testing::TempDir() + "/selector.bin";
  sel.save(path);
  const FormatSelector back = FormatSelector::load(path);
  EXPECT_EQ(back.candidates(), sel.candidates());
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(back.predict_index(p.corpus[static_cast<std::size_t>(i)].matrix),
              sel.predict_index(p.corpus[static_cast<std::size_t>(i)].matrix))
        << "matrix " << i;
  }
}

TEST(Selector, PredictBeforeFitThrows) {
  FormatSelector sel(fast_options());
  Rng rng(1);
  const Csr a = gen_banded(32, 32, 1, 1.0, rng);
  EXPECT_THROW(sel.predict(a), std::runtime_error);
}

TEST(Selector, GeometryOptionsRoundTrip) {
  // The size1/size2 deprecation window is over: rep_rows/rep_bins are the
  // only names, and they flow from options into the selector unchanged.
  SelectorOptions opts;
  opts.rep_rows = 24;
  opts.rep_bins = 12;
  opts.rep_sample_nnz = 4096;
  const FormatSelector sel(opts);
  EXPECT_EQ(sel.options().rep_rows, 24);
  EXPECT_EQ(sel.options().rep_bins, 12);
  EXPECT_EQ(sel.options().rep_sample_nnz, 4096);
  EXPECT_EQ(sel.rep_builder().options().rep_rows, 24);
  EXPECT_EQ(sel.rep_builder().options().sample_nnz, 4096);
}

TEST(Selector, MigrationKeepsCandidates) {
  SmallPipeline p;
  FormatSelector sel(fast_options());
  sel.fit(p.labeled, p.platform->formats());

  const auto amd = make_analytic_cpu(amd_a8_params());
  const auto amd_labeled = collect_labels(p.corpus, *amd);
  const Dataset target = build_dataset(amd_labeled, amd->formats(),
                                       sel.options().mode,
                                       sel.options().rep_rows,
                                       sel.options().rep_bins);
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch = 16;
  const FormatSelector migrated =
      sel.migrate(MigrationMethod::kTopEvolve, target, cfg);
  EXPECT_TRUE(migrated.trained());
  EXPECT_EQ(migrated.candidates(), sel.candidates());
  // Still produces valid predictions.
  const auto idx = migrated.predict_index(p.corpus[0].matrix);
  EXPECT_GE(idx, 0);
  EXPECT_LT(idx, static_cast<std::int32_t>(sel.candidates().size()));
}

TEST(Selector, BuildDatasetCarriesTimesAndFeatures) {
  SmallPipeline p;
  const Dataset ds = build_dataset(p.labeled, p.platform->formats(),
                                   RepMode::kHistogram, 16, 8);
  ASSERT_EQ(ds.size(), p.labeled.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(ds.samples[i].label, p.labeled[i].label);
    EXPECT_EQ(ds.samples[i].format_times, p.labeled[i].format_times);
    EXPECT_EQ(ds.samples[i].features.size(),
              static_cast<std::size_t>(kNumFeatures));
    EXPECT_EQ(ds.samples[i].inputs.size(), 2u);
  }
}

TEST(Selector, LoadRejectsMissingFile) {
  EXPECT_THROW(FormatSelector::load("/nonexistent/model.bin"),
               std::runtime_error);
}

// ------------------------------------------------------------ SpMM head

// One fp32 and one int8 selector, each trained on Xeon SpMV labels and then
// given an SpMM head. The SpMM slice is labelled by the analytic AMD model:
// deterministic, and its labels differ from the SpMV head's on part of the
// corpus, so the two heads have different things to learn.
struct SpmmPipeline {
  SmallPipeline base;
  std::vector<LabeledMatrix> spmm_labeled;
  std::vector<const Csr*> mats;
  FormatSelector fp32_spmv_only, fp32, int8;
  std::vector<std::int32_t> fp32_spmv_before, int8_spmv_before;
  QuantizedWeightSet int8_qws_before;

  SpmmPipeline() {
    spmm_labeled =
        collect_labels(base.corpus, *make_analytic_cpu(amd_a8_params()));
    for (const CorpusEntry& e : base.corpus) mats.push_back(&e.matrix);
    fp32 = FormatSelector(fast_options());
    fp32.fit(base.labeled, base.platform->formats());
    fp32_spmv_only = fp32.clone();
    fp32_spmv_before = fp32.predict_index_batch(mats);
    fp32.fit_spmm(spmm_labeled);

    SelectorOptions qopts = fast_options();
    qopts.quantize = true;
    int8 = FormatSelector(qopts);
    int8.fit(base.labeled, base.platform->formats());
    int8_spmv_before = int8.predict_index_batch(mats);
    int8_qws_before = *int8.quantized_weights();
    int8.fit_spmm(spmm_labeled);
  }

  Dataset spmv_dataset() const {
    return build_dataset(base.labeled, base.platform->formats(),
                         fp32.options().mode, fp32.options().rep_rows,
                         fp32.options().rep_bins);
  }
};

SpmmPipeline& spmm_pipeline() {
  static SpmmPipeline p;
  return p;
}

// Both ops' picks of `a` and `b` agree on every corpus matrix.
void expect_same_picks(const FormatSelector& a, const FormatSelector& b,
                       const std::vector<const Csr*>& mats) {
  for (SpOp op : {SpOp::kSpmv, SpOp::kSpmm})
    EXPECT_EQ(a.predict_index_batch(mats, op), b.predict_index_batch(mats, op))
        << (op == SpOp::kSpmv ? "SpMV" : "SpMM") << " picks moved";
}

TEST(SelectorSpmm, SupportsSpmmOnlyAfterFitSpmm) {
  auto& p = spmm_pipeline();
  EXPECT_TRUE(p.fp32_spmv_only.supports(SpOp::kSpmv));
  EXPECT_FALSE(p.fp32_spmv_only.supports(SpOp::kSpmm));
  for (const FormatSelector* sel : {&p.fp32, &p.int8}) {
    EXPECT_TRUE(sel->supports(SpOp::kSpmv));
    EXPECT_TRUE(sel->supports(SpOp::kSpmm));
  }
  EXPECT_THROW(p.fp32_spmv_only.predict(p.base.corpus[0].matrix, SpOp::kSpmm),
               DnnspmvError);
  // The fixture is only meaningful if the two label sets disagree somewhere.
  int differ = 0;
  for (std::size_t i = 0; i < p.spmm_labeled.size(); ++i)
    differ += p.spmm_labeled[i].label != p.base.labeled[i].label ? 1 : 0;
  EXPECT_GT(differ, 0);
}

TEST(SelectorSpmm, BatchedPicksEqualOneByOne) {
  auto& p = spmm_pipeline();
  for (const FormatSelector* sel : {&p.fp32, &p.int8}) {
    const std::vector<std::int32_t> batched =
        sel->predict_index_batch(p.mats, SpOp::kSpmm);
    ASSERT_EQ(batched.size(), p.mats.size());
    for (std::size_t i = 0; i < p.mats.size(); ++i)
      EXPECT_EQ(batched[i], sel->predict_index(*p.mats[i], SpOp::kSpmm))
          << "matrix " << i << (sel->quantized() ? " (int8)" : " (fp32)");
  }
}

TEST(SelectorSpmm, FitSpmmLeavesSpmvPicksUnchanged) {
  auto& p = spmm_pipeline();
  EXPECT_EQ(p.fp32.predict_index_batch(p.mats), p.fp32_spmv_before);
  ASSERT_TRUE(p.int8.quantized());
  EXPECT_EQ(p.int8.predict_index_batch(p.mats), p.int8_spmv_before);
}

TEST(SelectorSpmm, FitSpmmOnlyAppendsTheNewHeadsInt8Layers) {
  auto& p = spmm_pipeline();
  const std::vector<QLayer>& before = p.int8_qws_before.layers;
  const std::vector<QLayer>& after = p.int8.quantized_weights()->layers;
  ASSERT_GT(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].seq, before[i].seq);
    EXPECT_EQ(after[i].index, before[i].index);
    EXPECT_EQ(after[i].act_scale, before[i].act_scale) << "layer " << i;
    EXPECT_EQ(after[i].act_zp, before[i].act_zp) << "layer " << i;
    EXPECT_EQ(after[i].w_scale, before[i].w_scale) << "layer " << i;
    EXPECT_EQ(after[i].wq, before[i].wq) << "layer " << i;
  }
  for (std::size_t i = before.size(); i < after.size(); ++i)
    EXPECT_EQ(after[i].seq, head_seq(static_cast<std::size_t>(SpOp::kSpmm)));
}

TEST(SelectorSpmm, SaveLoadAndCloneKeepBothOps) {
  auto& p = spmm_pipeline();
  for (const FormatSelector* sel : {&p.fp32, &p.int8}) {
    const std::string path = ::testing::TempDir() + "/selector_spmm.bin";
    sel->save(path);
    const FormatSelector back = FormatSelector::load(path);
    std::remove(path.c_str());
    EXPECT_TRUE(back.supports(SpOp::kSpmm));
    EXPECT_EQ(back.quantized(), sel->quantized());
    EXPECT_EQ(back.options().spmm_cols, sel->options().spmm_cols);
    expect_same_picks(back, *sel, p.mats);
    expect_same_picks(sel->clone(), *sel, p.mats);
  }
}

TEST(SelectorSpmm, TopEvolveMigrationKeepsSpmmPicks) {
  auto& p = spmm_pipeline();
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch = 16;
  const FormatSelector migrated =
      p.fp32.migrate(MigrationMethod::kTopEvolve, p.spmv_dataset(), cfg);
  ASSERT_TRUE(migrated.supports(SpOp::kSpmm));
  EXPECT_EQ(migrated.predict_index_batch(p.mats, SpOp::kSpmm),
            p.fp32.predict_index_batch(p.mats, SpOp::kSpmm));
}

TEST(SelectorSpmm, MigrationThatRetrainsTowersIsRejected) {
  auto& p = spmm_pipeline();
  const Dataset target = p.spmv_dataset();
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch = 16;
  for (MigrationMethod m :
       {MigrationMethod::kContinuous, MigrationMethod::kFromScratch}) {
    try {
      (void)p.fp32.migrate(m, target, cfg);
      ADD_FAILURE() << migration_method_name(m) << " kept a stale SpMM head";
    } catch (const DnnspmvError& e) {
      EXPECT_EQ(e.code(), errc::invalid_argument);
    }
    // SpMV-only models keep every method.
    EXPECT_TRUE(p.fp32_spmv_only.migrate(m, target, cfg).trained());
  }
}

TEST(SelectorSpmm, MixedOpBatchAnswersLikePredictIndex) {
  auto& p = spmm_pipeline();
  for (const FormatSelector* sel : {&p.fp32, &p.int8}) {
    ModelRegistry registry(sel->clone());
    ModelSubscription models(registry);
    RequestQueue queue(64);
    PredictionCache cache(64, 2);
    ServiceMetrics metrics;
    Batcher batcher(models, queue, cache, metrics, /*max_batch=*/64);

    std::vector<PredictRequest> batch;
    std::vector<std::future<std::int32_t>> answers;
    std::vector<SpOp> ops;
    for (std::size_t i = 0; i < 24; ++i) {
      const Csr& a = *p.mats[i];
      PredictRequest r;
      r.op = i % 3 == 0 ? SpOp::kSpmv : SpOp::kSpmm;
      r.fingerprint = op_scoped_fingerprint(structural_fingerprint(a), r.op);
      r.inputs = sel->prepare_inputs(a);
      answers.push_back(r.result.get_future());
      ops.push_back(r.op);
      batch.push_back(std::move(r));
    }
    Workspace ws;
    const std::shared_ptr<const FormatSelector> model = models.model();
    batcher.serve_batch(batch, ws, *model);
    for (std::size_t i = 0; i < answers.size(); ++i)
      EXPECT_EQ(answers[i].get(), sel->predict_index(*p.mats[i], ops[i]))
          << "request " << i << (sel->quantized() ? " (int8)" : " (fp32)");
  }
}

TEST(SelectorSpmm, RegistryRejectsModelWithoutSpmmHead) {
  auto& p = spmm_pipeline();
  ModelRegistry registry(p.fp32.clone());
  try {
    registry.publish(p.fp32_spmv_only.clone());
    ADD_FAILURE() << "an SpMV-only model replaced a two-op model";
  } catch (const DnnspmvError& e) {
    EXPECT_EQ(e.code(), errc::invalid_argument);
  }
  EXPECT_EQ(registry.version(), 1u);
}

}  // namespace
}  // namespace dnnspmv
