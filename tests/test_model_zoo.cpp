#include "core/model_zoo.hpp"

#include <gtest/gtest.h>

namespace dnnspmv {
namespace {

CnnSpec hist_spec() {
  CnnSpec s;
  s.input_hw = {{32, 16}, {32, 16}};
  s.num_classes = 4;
  return s;
}

TEST(ModelZoo, LateMergeHasOneTowerPerSource) {
  MergeNet net = build_cnn(hist_spec());
  EXPECT_EQ(net.num_towers(), 2u);
  EXPECT_EQ(num_net_inputs(hist_spec()), 2);
}

TEST(ModelZoo, EarlyMergeHasSingleTower) {
  CnnSpec s = hist_spec();
  s.input_hw = {{32, 32}, {32, 32}};
  s.late_merge = false;
  MergeNet net = build_cnn(s);
  EXPECT_EQ(net.num_towers(), 1u);
  EXPECT_EQ(num_net_inputs(s), 1);
}

TEST(ModelZoo, EarlyMergeRejectsMismatchedShapes) {
  CnnSpec s;
  s.input_hw = {{32, 32}, {32, 16}};
  s.late_merge = false;
  EXPECT_THROW(build_cnn(s), std::runtime_error);
}

TEST(ModelZoo, LogitShapeMatchesClasses) {
  MergeNet net = build_cnn(hist_spec());
  std::vector<Tensor> inputs(2, Tensor({3, 1, 32, 16}));
  Workspace ws;
  Tensor logits;
  net.forward(inputs, logits, false, ws);
  EXPECT_EQ(logits.shape(), (std::vector<std::int64_t>{3, 4}));
}

TEST(ModelZoo, EarlyMergeForwardWorks) {
  CnnSpec s;
  s.input_hw = {{16, 16}, {16, 16}};
  s.num_classes = 6;
  s.late_merge = false;
  MergeNet net = build_cnn(s);
  std::vector<Tensor> inputs(1, Tensor({2, 2, 16, 16}));
  Workspace ws;
  Tensor logits;
  net.forward(inputs, logits, false, ws);
  EXPECT_EQ(logits.shape(), (std::vector<std::int64_t>{2, 6}));
}

TEST(ModelZoo, ThirdConvStageOnlyForLargeInputs) {
  CnnSpec small = hist_spec();
  CnnSpec big = hist_spec();
  big.input_hw = {{128, 128}, {128, 128}};
  MergeNet ns = build_cnn(small);
  MergeNet nb = build_cnn(big);
  // The 128×128 tower has one extra conv block → more layers.
  EXPECT_GT(nb.tower(0).num_layers(), ns.tower(0).num_layers());
}

TEST(ModelZoo, SeedReproducibleWeights) {
  MergeNet a = build_cnn(hist_spec());
  MergeNet b = build_cnn(hist_spec());
  const auto pa = a.params(), pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    for (std::int64_t j = 0; j < pa[i]->value.size(); ++j)
      EXPECT_EQ(pa[i]->value[j], pb[i]->value[j]);
}

TEST(ModelZoo, DifferentSeedsDifferentWeights) {
  CnnSpec s2 = hist_spec();
  s2.seed = 99;
  MergeNet a = build_cnn(hist_spec());
  MergeNet b = build_cnn(s2);
  bool differ = false;
  const auto pa = a.params(), pb = b.params();
  for (std::size_t i = 0; i < pa.size() && !differ; ++i)
    for (std::int64_t j = 0; j < pa[i]->value.size(); ++j)
      if (pa[i]->value[j] != pb[i]->value[j]) {
        differ = true;
        break;
      }
  EXPECT_TRUE(differ);
}

TEST(ModelZoo, RejectsTinyInputs) {
  CnnSpec s;
  s.input_hw = {{4, 4}};
  EXPECT_THROW(build_cnn(s), std::runtime_error);
}

TEST(ModelZoo, CodesAreConcatenatedTowerOutputs) {
  MergeNet net = build_cnn(hist_spec());
  std::vector<Tensor> inputs(2, Tensor({2, 1, 32, 16}));
  Rng rng(3);
  inputs[0].fill_uniform(rng, 0.0f, 1.0f);
  inputs[1].fill_uniform(rng, 0.0f, 1.0f);
  Workspace ws;
  Tensor codes;
  net.codes(inputs, codes, ws);
  EXPECT_EQ(codes.dim(0), 2);
  EXPECT_GT(codes.dim(1), 0);
  // Codes are deterministic for fixed inputs.
  Tensor codes2;
  net.codes(inputs, codes2, ws);
  for (std::int64_t i = 0; i < codes.size(); ++i)
    EXPECT_EQ(codes[i], codes2[i]);
}

}  // namespace
}  // namespace dnnspmv
