// Numerical gradient verification for every layer and for the full
// late-merging network: central finite differences against backprop.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/loss.hpp"
#include "nn/merge_net.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"

namespace dnnspmv {
namespace {

constexpr float kEps = 1e-2f;   // fp32 central differences
constexpr float kTol = 2e-2f;   // relative tolerance

double rel_err(double a, double b) {
  const double scale = std::max({1e-4, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) / scale;
}

/// Scalar loss = sum of out elements weighted by a fixed random tensor
/// (keeps the loss sensitive to every output).
double weighted_sum(const Tensor& out, const Tensor& w) {
  double s = 0.0;
  for (std::int64_t i = 0; i < out.size(); ++i)
    s += static_cast<double>(out[i]) * w[i];
  return s;
}

/// Checks input and parameter gradients of `layer` on input `in`.
/// `kink_budget` coordinates may fail: finite differences are invalid when
/// the ±eps probe crosses a ReLU kink or flips a max-pool argmax, which
/// composed stacks cannot avoid.
void check_layer(Layer& layer, Tensor in, int max_checks = 40,
                 int kink_budget = 0) {
  int bad = 0;
  Rng rng(1234);
  Workspace ws;
  Tensor out;
  layer.forward(in, out, /*training=*/false, ws);
  Tensor w(out.shape());
  w.fill_uniform(rng, -1.0f, 1.0f);

  // Backprop gradients.
  zero_grads(layer.params());
  Tensor grad_in;
  layer.backward(in, out, w, grad_in, ws);

  // Input gradient check.
  const std::int64_t stride_in = std::max<std::int64_t>(1, in.size() / max_checks);
  for (std::int64_t i = 0; i < in.size(); i += stride_in) {
    const float orig = in[i];
    in[i] = orig + kEps;
    Tensor op;
    layer.forward(in, op, false, ws);
    const double fp = weighted_sum(op, w);
    in[i] = orig - kEps;
    layer.forward(in, op, false, ws);
    const double fm = weighted_sum(op, w);
    in[i] = orig;
    const double num = (fp - fm) / (2.0 * kEps);
    if (rel_err(num, grad_in[i]) >= kTol) {
      ++bad;
      EXPECT_LE(bad, kink_budget)
          << "input grad mismatch at " << i << ": num=" << num
          << " bp=" << grad_in[i];
    }
  }
  // Restore forward state for the parameter loop below.
  layer.forward(in, out, false, ws);

  // Parameter gradient check.
  for (Param* p : layer.params()) {
    const std::int64_t stride_p =
        std::max<std::int64_t>(1, p->value.size() / max_checks);
    for (std::int64_t i = 0; i < p->value.size(); i += stride_p) {
      const float orig = p->value[i];
      p->value[i] = orig + kEps;
      Tensor op;
      layer.forward(in, op, false, ws);
      const double fp = weighted_sum(op, w);
      p->value[i] = orig - kEps;
      layer.forward(in, op, false, ws);
      const double fm = weighted_sum(op, w);
      p->value[i] = orig;
      const double num = (fp - fm) / (2.0 * kEps);
      if (rel_err(num, p->grad[i]) >= kTol) {
        ++bad;
        EXPECT_LE(bad, kink_budget)
            << p->name << " grad mismatch at " << i << ": num=" << num
            << " bp=" << p->grad[i];
      }
    }
  }
}

TEST(GradCheck, Dense) {
  Rng rng(1);
  Dense layer(7, 5, rng);
  Tensor in({3, 7});
  in.fill_uniform(rng, -1.0f, 1.0f);
  check_layer(layer, in);
}

TEST(GradCheck, Conv2dStride1) {
  Rng rng(2);
  Conv2D layer(2, 3, 3, 1, 1, rng);
  Tensor in({2, 2, 6, 5});
  in.fill_uniform(rng, -1.0f, 1.0f);
  check_layer(layer, in);
}

TEST(GradCheck, Conv2dStride2NoPad) {
  Rng rng(3);
  Conv2D layer(1, 2, 3, 2, 0, rng);
  Tensor in({2, 1, 7, 7});
  in.fill_uniform(rng, -1.0f, 1.0f);
  check_layer(layer, in);
}

TEST(GradCheck, ReLUAwayFromKink) {
  Rng rng(4);
  ReLU layer;
  Tensor in({2, 10});
  in.fill_uniform(rng, 0.2f, 1.0f);  // keep away from 0 where ReLU kinks
  Tensor neg({2, 10});
  neg.fill_uniform(rng, -1.0f, -0.2f);
  check_layer(layer, in);
  check_layer(layer, neg);
}

TEST(GradCheck, MaxPool) {
  Rng rng(5);
  MaxPool2D layer(2);
  Tensor in({2, 2, 6, 6});
  in.fill_uniform(rng, -1.0f, 1.0f);
  check_layer(layer, in);
}

TEST(GradCheck, Flatten) {
  Rng rng(6);
  Flatten layer;
  Tensor in({2, 3, 4, 5});
  in.fill_uniform(rng, -1.0f, 1.0f);
  check_layer(layer, in);
}

TEST(GradCheck, SequentialStack) {
  Rng rng(7);
  Sequential seq;
  seq.emplace<Conv2D>(1, 2, 3, 1, 1, rng);
  seq.emplace<ReLU>();
  seq.emplace<MaxPool2D>(2);
  seq.emplace<Flatten>();
  seq.emplace<Dense>(2 * 4 * 4, 3, rng);
  Tensor in({2, 1, 8, 8});
  in.fill_uniform(rng, 0.1f, 1.0f);
  // Hidden ReLU/pool kinks are unavoidable in a composed stack: allow a
  // handful of finite-difference outliers out of ~100 sampled coordinates.
  check_layer(seq, in, 25, /*kink_budget=*/15);
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  Rng rng(8);
  Tensor logits({4, 3});
  logits.fill_uniform(rng, -2.0f, 2.0f);
  const std::vector<std::int32_t> labels = {0, 2, 1, 2};
  Tensor grad;
  softmax_cross_entropy(logits, labels, grad);
  for (std::int64_t i = 0; i < logits.size(); ++i) {
    const float orig = logits[i];
    Tensor g;
    logits[i] = orig + kEps;
    const double fp = softmax_cross_entropy(logits, labels, g);
    logits[i] = orig - kEps;
    const double fm = softmax_cross_entropy(logits, labels, g);
    logits[i] = orig;
    const double num = (fp - fm) / (2.0 * kEps);
    EXPECT_LT(rel_err(num, grad[i]), kTol) << "logit grad at " << i;
  }
}

TEST(GradCheck, FullLateMergeNetwork) {
  // End-to-end: loss gradient w.r.t. an arbitrary parameter of each tower
  // and of the head matches finite differences.
  Rng rng(9);
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
  net.head().emplace<Dense>(8, 3, rng);

  std::vector<Tensor> inputs(2, Tensor({3, 1, 8, 8}));
  inputs[0].fill_uniform(rng, 0.05f, 1.0f);
  inputs[1].fill_uniform(rng, 0.05f, 1.0f);
  const std::vector<std::int32_t> labels = {0, 1, 2};

  Workspace ws;
  auto loss_fn = [&]() {
    Tensor logits, g;
    net.forward(inputs, logits, false, ws);
    return softmax_cross_entropy(logits, labels, g);
  };

  Tensor logits;
  net.forward(inputs, logits, false, ws);
  Tensor grad;
  softmax_cross_entropy(logits, labels, grad);
  zero_grads(net.params());
  net.backward(inputs, grad, ws);

  int bad = 0;
  for (Param* p : net.params()) {
    const std::int64_t stride =
        std::max<std::int64_t>(1, p->value.size() / 8);
    for (std::int64_t i = 0; i < p->value.size(); i += stride) {
      const float orig = p->value[i];
      p->value[i] = orig + kEps;
      const double fp = loss_fn();
      p->value[i] = orig - kEps;
      const double fm = loss_fn();
      p->value[i] = orig;
      const double num = (fp - fm) / (2.0 * kEps);
      if (rel_err(num, p->grad[i]) >= 5e-2) {
        ++bad;  // ReLU/pool kink crossings — tolerate a sparse few
        EXPECT_LE(bad, 8) << p->name << "[" << i << "] num=" << num
                          << " bp=" << p->grad[i];
      }
    }
  }
}

}  // namespace
}  // namespace dnnspmv
