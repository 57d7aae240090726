#include "core/transfer.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace dnnspmv {
namespace {

Dataset make_toy(int n, std::uint64_t seed, bool flip_labels = false) {
  Dataset ds;
  ds.candidates = {Format::kCoo, Format::kCsr};
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    Sample s;
    const auto cls = static_cast<std::int32_t>(rng.uniform_u64(2));
    s.label = flip_labels ? (1 - cls) : cls;
    for (int src = 0; src < 2; ++src) {
      Tensor t({16, 16});
      const float base = (src == cls) ? 0.9f : 0.1f;
      for (std::int64_t j = 0; j < t.size(); ++j)
        t[j] = base + static_cast<float>(rng.uniform(-0.05, 0.05));
      s.inputs.push_back(std::move(t));
    }
    ds.samples.push_back(std::move(s));
  }
  return ds;
}

CnnSpec toy_spec() {
  CnnSpec spec;
  spec.input_hw = {{16, 16}, {16, 16}};
  spec.num_classes = 2;
  spec.conv1_channels = 4;
  spec.conv2_channels = 4;
  spec.head_hidden = 16;
  spec.dropout = 0.0;
  return spec;
}

std::vector<float> snapshot(const std::vector<Param*>& ps) {
  std::vector<float> out;
  for (Param* p : ps)
    for (std::int64_t i = 0; i < p->value.size(); ++i)
      out.push_back(p->value[i]);
  return out;
}

struct Trained {
  MergeNet source;
  Dataset source_data;
  Trained() : source(build_cnn(toy_spec())), source_data(make_toy(48, 1)) {
    TrainConfig cfg;
    cfg.epochs = 6;
    cfg.batch = 16;
    train_cnn(source, source_data, 2, cfg);
  }
};

TEST(Transfer, MethodNames) {
  EXPECT_EQ(migration_method_name(MigrationMethod::kFromScratch),
            "from-scratch");
  EXPECT_EQ(migration_method_name(MigrationMethod::kTopEvolve),
            "top-evolvement");
}

TEST(Transfer, TopEvolveKeepsTowersExactly) {
  Trained t;
  const Dataset target = make_toy(32, 2, /*flip_labels=*/true);
  TrainConfig cfg;
  cfg.epochs = 4;
  cfg.batch = 16;
  MergeNet migrated = migrate_model(toy_spec(), t.source,
                                    MigrationMethod::kTopEvolve, target, cfg);
  // Tower params identical to the source; head params changed.
  for (std::size_t tw = 0; tw < 2; ++tw) {
    const auto src = snapshot(t.source.tower(tw).params());
    const auto dst = snapshot(migrated.tower(tw).params());
    EXPECT_EQ(src, dst) << "tower " << tw << " must stay frozen";
  }
  EXPECT_NE(snapshot(t.source.head_params()),
            snapshot(migrated.head_params()));
}

TEST(Transfer, ContinuousEvolvementMovesTowers) {
  Trained t;
  const Dataset target = make_toy(32, 3, true);
  TrainConfig cfg;
  cfg.epochs = 4;
  cfg.batch = 16;
  MergeNet migrated = migrate_model(toy_spec(), t.source,
                                    MigrationMethod::kContinuous, target, cfg);
  EXPECT_NE(snapshot(t.source.tower(0).params()),
            snapshot(migrated.tower(0).params()));
}

TEST(Transfer, FromScratchIgnoresSourceWeights) {
  Trained t;
  const Dataset empty_target = make_toy(0, 4);
  TrainConfig cfg;
  cfg.epochs = 0;
  MergeNet migrated =
      migrate_model(toy_spec(), t.source, MigrationMethod::kFromScratch,
                    empty_target, cfg);
  // With no training and fresh init, weights equal a fresh build_cnn.
  MergeNet fresh = build_cnn(toy_spec());
  EXPECT_EQ(snapshot(fresh.params()), snapshot(migrated.params()));
  EXPECT_NE(snapshot(t.source.params()), snapshot(migrated.params()));
}

TEST(Transfer, WarmStartBeatsScratchOnFewSamples) {
  // The Figure 9 effect in miniature: with target labels similar to the
  // source task and only a handful of retraining samples, the evolvement
  // methods should outperform training from scratch.
  Trained t;
  const Dataset target_train = make_toy(12, 5);   // same rule as source
  const Dataset target_test = make_toy(64, 6);
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch = 8;

  MergeNet scratch = migrate_model(
      toy_spec(), t.source, MigrationMethod::kFromScratch, target_train, cfg);
  MergeNet top = migrate_model(toy_spec(), t.source,
                               MigrationMethod::kTopEvolve, target_train, cfg);
  const double acc_scratch = accuracy_cnn(scratch, target_test, 2);
  const double acc_top = accuracy_cnn(top, target_test, 2);
  EXPECT_GE(acc_top, acc_scratch);
  EXPECT_GT(acc_top, 0.75);
}

TEST(Transfer, MigratedModelIsUnfrozenAfterContinuous) {
  Trained t;
  const Dataset target = make_toy(8, 7);
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch = 8;
  MergeNet migrated = migrate_model(toy_spec(), t.source,
                                    MigrationMethod::kContinuous, target, cfg);
  for (Param* p : migrated.params()) EXPECT_FALSE(p->frozen);
}

TEST(Transfer, TopEvolveAppendsAndTrainsANewHead) {
  // The SpMM head's path (FormatSelector::fit_spmm): head 1 is appended
  // with fresh weights and trains alone; the towers and head 0 carry over.
  Trained t;
  const Dataset target = make_toy(32, 8, /*flip_labels=*/true);
  TrainConfig cfg;
  cfg.epochs = 4;
  cfg.batch = 16;
  MergeNet migrated =
      migrate_model(toy_spec(), t.source, MigrationMethod::kTopEvolve, target,
                    cfg, /*head=*/1);
  ASSERT_EQ(migrated.num_heads(), 2u);
  for (std::size_t tw = 0; tw < 2; ++tw)
    EXPECT_EQ(snapshot(t.source.tower(tw).params()),
              snapshot(migrated.tower(tw).params()));
  EXPECT_EQ(snapshot(t.source.head_params(0)),
            snapshot(migrated.head_params(0)));
  // Head 1 started from build_cnn's fresh weights and trained.
  MergeNet fresh = build_cnn(toy_spec(), 2);
  EXPECT_NE(snapshot(fresh.head_params(1)), snapshot(migrated.head_params(1)));
  for (Param* p : migrated.head_params(1)) EXPECT_FALSE(p->frozen);
}

TEST(Transfer, NewHeadRejectsGapsAndTowerRetraining) {
  Trained t;
  const Dataset target = make_toy(8, 9);
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch = 8;
  EXPECT_THROW(migrate_model(toy_spec(), t.source, MigrationMethod::kTopEvolve,
                             target, cfg, /*head=*/2),
               DnnspmvError);
  for (MigrationMethod m :
       {MigrationMethod::kContinuous, MigrationMethod::kFromScratch}) {
    try {
      migrate_model(toy_spec(), t.source, m, target, cfg, /*head=*/1);
      ADD_FAILURE() << migration_method_name(m) << " must throw";
    } catch (const DnnspmvError& e) {
      EXPECT_EQ(e.code(), errc::invalid_argument);
    }
  }
}

}  // namespace
}  // namespace dnnspmv
