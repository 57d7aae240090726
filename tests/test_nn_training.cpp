// End-to-end learning sanity: the NN stack can actually fit problems.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/loss.hpp"
#include "nn/merge_net.hpp"
#include "nn/optimizer.hpp"
#include "nn/pool.hpp"

namespace dnnspmv {
namespace {

/// Two-class toy: class 0 images bright in the left half, class 1 in the
/// right half (plus noise).
void make_toy_image(Rng& rng, Tensor& img, std::int32_t label) {
  img.fill_uniform(rng, 0.0f, 0.2f);
  const std::int64_t h = img.dim(2), w = img.dim(3);
  const std::int64_t c0 = label == 0 ? 0 : w / 2;
  for (std::int64_t y = 0; y < h; ++y)
    for (std::int64_t x = c0; x < c0 + w / 2; ++x)
      img.at4(0, 0, y, x) += 0.8f;
}

double train_toy(Adam& opt, MergeNet& net, Rng& rng, int steps) {
  Workspace ws;
  double last_loss = 1e9;
  for (int s = 0; s < steps; ++s) {
    std::vector<Tensor> inputs(1, Tensor({8, 1, 8, 8}));
    std::vector<std::int32_t> labels(8);
    for (int b = 0; b < 8; ++b) {
      labels[static_cast<std::size_t>(b)] =
          static_cast<std::int32_t>(rng.uniform_u64(2));
      Tensor one({1, 1, 8, 8});
      make_toy_image(rng, one, labels[static_cast<std::size_t>(b)]);
      std::copy(one.data(), one.data() + 64, inputs[0].data() + b * 64);
    }
    Tensor logits, grad;
    net.forward(inputs, logits, true, ws);
    last_loss = softmax_cross_entropy(logits, labels, grad);
    net.backward(inputs, grad, ws);
    opt.step();
  }
  return last_loss;
}

MergeNet make_small_net(Rng& rng) {
  MergeNet net;
  Sequential& tower = net.add_tower();
  tower.emplace<Conv2D>(1, 4, 3, 1, 1, rng);
  tower.emplace<ReLU>();
  tower.emplace<MaxPool2D>(2);
  tower.emplace<Flatten>();
  net.head().emplace<Dense>(4 * 4 * 4, 16, rng);
  net.head().emplace<ReLU>();
  net.head().emplace<Dense>(16, 2, rng);
  return net;
}

TEST(Training, AdamFitsToyProblem) {
  Rng rng(42);
  MergeNet net = make_small_net(rng);
  Adam opt(net.params(), 3e-3);
  const double loss = train_toy(opt, net, rng, 120);
  EXPECT_LT(loss, 0.1);
}

TEST(Training, LossDecreasesOverall) {
  Rng rng(44);
  MergeNet net = make_small_net(rng);
  Adam opt(net.params(), 3e-3);
  const double early = train_toy(opt, net, rng, 10);
  const double late = train_toy(opt, net, rng, 100);
  EXPECT_LT(late, early);
}

TEST(Training, FrozenParamsDoNotMove) {
  Rng rng(45);
  MergeNet net = make_small_net(rng);
  net.freeze_towers();
  std::vector<float> before;
  for (Param* p : net.tower(0).params())
    for (std::int64_t i = 0; i < p->value.size(); ++i)
      before.push_back(p->value[i]);
  Adam opt(net.params(), 3e-3);
  train_toy(opt, net, rng, 30);
  std::size_t k = 0;
  for (Param* p : net.tower(0).params())
    for (std::int64_t i = 0; i < p->value.size(); ++i)
      EXPECT_EQ(p->value[i], before[k++]);
}

TEST(Training, HeadStillLearnsWhenTowersFrozen) {
  Rng rng(46);
  MergeNet net = make_small_net(rng);
  net.freeze_towers();
  std::vector<float> head_before;
  for (Param* p : net.head_params())
    for (std::int64_t i = 0; i < p->value.size(); ++i)
      head_before.push_back(p->value[i]);
  Adam opt(net.params(), 3e-3);
  train_toy(opt, net, rng, 30);
  std::size_t k = 0;
  bool changed = false;
  for (Param* p : net.head_params())
    for (std::int64_t i = 0; i < p->value.size(); ++i)
      changed |= p->value[i] != head_before[k++];
  EXPECT_TRUE(changed);
}

TEST(Training, FrozenTowersSkipTheirBackwardPass) {
  Rng rng(48);
  MergeNet net = make_small_net(rng);
  std::vector<Tensor> inputs(1, Tensor({2, 1, 8, 8}));
  inputs[0].fill_uniform(rng, 0.0f, 1.0f);
  const std::vector<std::int32_t> labels = {0, 1};
  Workspace ws;
  const auto grads_after_step = [&](Sequential& seq) {
    for (Param* p : net.params()) p->grad.zero();
    Tensor logits, grad;
    net.forward(inputs, logits, /*training=*/true, ws);
    softmax_cross_entropy(logits, labels, grad);
    net.backward(inputs, grad, ws);
    double sum = 0.0;
    for (Param* p : seq.params())
      for (std::int64_t i = 0; i < p->grad.size(); ++i)
        sum += std::abs(p->grad[i]);
    return sum;
  };
  net.freeze_towers();
  EXPECT_EQ(grads_after_step(net.tower(0)), 0.0);
  EXPECT_GT(grads_after_step(net.head()), 0.0);
  net.unfreeze_all();
  EXPECT_GT(grads_after_step(net.tower(0)), 0.0);
}

TEST(Training, TwoTowerNetLearnsCrossSourceRule) {
  // Label = which source has the brighter image — only learnable when both
  // towers contribute (exercises merge backprop end-to-end).
  Rng rng(47);
  MergeNet net;
  for (int t = 0; t < 2; ++t) {
    Sequential& tower = net.add_tower();
    tower.emplace<Conv2D>(1, 2, 3, 1, 1, rng);
    tower.emplace<ReLU>();
    tower.emplace<MaxPool2D>(2);
    tower.emplace<Flatten>();
  }
  net.head().emplace<Dense>(2 * 2 * 4 * 4, 8, rng);
  net.head().emplace<ReLU>();
  net.head().emplace<Dense>(8, 2, rng);
  Adam opt(net.params(), 3e-3);

  Workspace ws;
  double last = 1e9;
  for (int s = 0; s < 400; ++s) {
    std::vector<Tensor> inputs(2, Tensor({8, 1, 8, 8}));
    std::vector<std::int32_t> labels(8);
    for (int b = 0; b < 8; ++b) {
      const auto y = static_cast<std::int32_t>(rng.uniform_u64(2));
      labels[static_cast<std::size_t>(b)] = y;
      for (int src = 0; src < 2; ++src) {
        const float base = (src == y) ? 0.9f : 0.1f;
        for (int i = 0; i < 64; ++i)
          inputs[static_cast<std::size_t>(src)][b * 64 + i] =
              base + static_cast<float>(rng.uniform(-0.05, 0.05));
      }
    }
    Tensor logits, grad;
    net.forward(inputs, logits, true, ws);
    last = softmax_cross_entropy(logits, labels, grad);
    net.backward(inputs, grad, ws);
    opt.step();
  }
  EXPECT_LT(last, 0.15);
}

TEST(Optimizer, AdamStepZeroesGradients) {
  Rng rng(48);
  Dense d(3, 3, rng);
  Adam opt(d.params(), 1e-3);
  d.params()[0]->grad.fill(1.0f);
  opt.step();
  EXPECT_FLOAT_EQ(d.params()[0]->grad.max_abs(), 0.0f);
}

}  // namespace
}  // namespace dnnspmv
