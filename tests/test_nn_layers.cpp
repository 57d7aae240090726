#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>

#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/flatten.hpp"
#include "nn/loss.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"
#include "nn/serialize.hpp"

namespace dnnspmv {
namespace {

TEST(Conv2D, OutputShapeStride1Pad1PreservesHw) {
  Rng rng(1);
  Conv2D c(3, 8, 3, 1, 1, rng);
  const auto s = c.output_shape({4, 3, 17, 23});
  EXPECT_EQ(s, (std::vector<std::int64_t>{4, 8, 17, 23}));
}

TEST(Conv2D, OutputShapeStride2) {
  Rng rng(1);
  Conv2D c(1, 4, 3, 2, 1, rng);
  const auto s = c.output_shape({2, 1, 16, 16});
  EXPECT_EQ(s, (std::vector<std::int64_t>{2, 4, 8, 8}));
}

TEST(Conv2D, RejectsWrongChannelCount) {
  Rng rng(1);
  Conv2D c(3, 8, 3, 1, 1, rng);
  EXPECT_THROW(c.output_shape({1, 2, 8, 8}), std::runtime_error);
}

TEST(Conv2D, KnownConvolutionValue) {
  // All-ones 3x3 filter over an all-ones 3x3 image, no pad → 9.
  Rng rng(1);
  Conv2D c(1, 1, 3, 1, 0, rng);
  c.params()[0]->value.fill(1.0f);  // weight
  c.params()[1]->value.fill(0.5f);  // bias
  Tensor in({1, 1, 3, 3});
  in.fill(1.0f);
  Workspace ws;
  Tensor out;
  c.forward(in, out, false, ws);
  ASSERT_EQ(out.size(), 1);
  EXPECT_FLOAT_EQ(out[0], 9.5f);
}

TEST(MaxPool, PicksBlockMaxima) {
  MaxPool2D p(2);
  Tensor in({1, 1, 2, 4});
  const float vals[8] = {1, 5, 2, 0, 3, -1, 9, 4};
  for (int i = 0; i < 8; ++i) in[i] = vals[i];
  Workspace ws;
  Tensor out;
  p.forward(in, out, false, ws);
  ASSERT_EQ(out.size(), 2);
  EXPECT_FLOAT_EQ(out[0], 5.0f);
  EXPECT_FLOAT_EQ(out[1], 9.0f);
}

TEST(MaxPool, BackwardRoutesToArgmaxOnly) {
  MaxPool2D p(2);
  Tensor in({1, 1, 2, 2});
  in[0] = 1;
  in[1] = 4;
  in[2] = 2;
  in[3] = 3;
  Workspace ws;
  Tensor out, gin;
  p.forward(in, out, false, ws);
  Tensor gout({1, 1, 1, 1});
  gout[0] = 7.0f;
  p.backward(in, out, gout, gin, ws);
  EXPECT_FLOAT_EQ(gin[0], 0.0f);
  EXPECT_FLOAT_EQ(gin[1], 7.0f);
  EXPECT_FLOAT_EQ(gin[2], 0.0f);
  EXPECT_FLOAT_EQ(gin[3], 0.0f);
}

TEST(ReLU, ClampsNegatives) {
  ReLU r;
  Tensor in({4});
  in[0] = -1;
  in[1] = 0;
  in[2] = 2;
  in[3] = -3;
  Workspace ws;
  Tensor out;
  r.forward(in, out, false, ws);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 2.0f);
  EXPECT_FLOAT_EQ(out[3], 0.0f);
}

TEST(Dropout, InferenceIsIdentity) {
  Dropout d(0.5, 1);
  Tensor in({100});
  in.fill(3.0f);
  Workspace ws;
  Tensor out;
  d.forward(in, out, /*training=*/false, ws);
  for (std::int64_t i = 0; i < in.size(); ++i) EXPECT_FLOAT_EQ(out[i], 3.0f);
}

TEST(Dropout, TrainingKeepsExpectation) {
  Dropout d(0.3, 2);
  Tensor in({20000});
  in.fill(1.0f);
  Workspace ws;
  Tensor out;
  d.forward(in, out, /*training=*/true, ws);
  EXPECT_NEAR(out.sum() / static_cast<double>(out.size()), 1.0, 0.05);
  // Dropped elements are exactly zero.
  int zeros = 0;
  for (std::int64_t i = 0; i < out.size(); ++i)
    if (out[i] == 0.0f) ++zeros;
  EXPECT_NEAR(static_cast<double>(zeros) / static_cast<double>(out.size()),
              0.3, 0.03);
}

TEST(Dropout, BackwardUsesSameMask) {
  Dropout d(0.5, 3);
  Tensor in({1000});
  in.fill(1.0f);
  Workspace ws;
  Tensor out, gin;
  d.forward(in, out, true, ws);
  Tensor gout({1000});
  gout.fill(1.0f);
  d.backward(in, out, gout, gin, ws);
  for (std::int64_t i = 0; i < in.size(); ++i)
    EXPECT_FLOAT_EQ(gin[i], out[i]);  // identical keep/scale pattern
}

TEST(Dense, KnownValue) {
  Rng rng(1);
  Dense d(2, 2, rng);
  // W = [[1,2],[3,4]], b = [10, 20].
  d.params()[0]->value[0] = 1;
  d.params()[0]->value[1] = 2;
  d.params()[0]->value[2] = 3;
  d.params()[0]->value[3] = 4;
  d.params()[1]->value[0] = 10;
  d.params()[1]->value[1] = 20;
  Tensor in({1, 2});
  in[0] = 1;
  in[1] = 1;
  Workspace ws;
  Tensor out;
  d.forward(in, out, false, ws);
  EXPECT_FLOAT_EQ(out[0], 13.0f);
  EXPECT_FLOAT_EQ(out[1], 27.0f);
}

TEST(Softmax, RowsSumToOne) {
  Rng rng(4);
  Tensor logits({5, 7});
  logits.fill_uniform(rng, -4.0f, 4.0f);
  Tensor probs;
  softmax(logits, probs);
  for (std::int64_t b = 0; b < 5; ++b) {
    double s = 0.0;
    for (std::int64_t j = 0; j < 7; ++j) s += probs.at2(b, j);
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(Softmax, StableUnderLargeLogits) {
  Tensor logits({1, 3});
  logits[0] = 1000.0f;
  logits[1] = 1001.0f;
  logits[2] = 999.0f;
  Tensor probs;
  softmax(logits, probs);
  EXPECT_GT(probs[1], probs[0]);
  EXPECT_GT(probs[0], probs[2]);
  EXPECT_NEAR(probs[0] + probs[1] + probs[2], 1.0f, 1e-5f);
}

TEST(CrossEntropy, PerfectPredictionNearZeroLoss) {
  Tensor logits({2, 3});
  logits.fill(-30.0f);
  logits.at2(0, 1) = 30.0f;
  logits.at2(1, 2) = 30.0f;
  Tensor grad;
  const double loss = softmax_cross_entropy(logits, {1, 2}, grad);
  EXPECT_LT(loss, 1e-5);
}

TEST(CrossEntropy, UniformLogitsGiveLogK) {
  Tensor logits({1, 4});
  logits.fill(0.0f);
  Tensor grad;
  const double loss = softmax_cross_entropy(logits, {2}, grad);
  EXPECT_NEAR(loss, std::log(4.0), 1e-6);
}

TEST(Sequential, OutputShapeComposition) {
  Rng rng(5);
  Sequential seq;
  seq.emplace<Conv2D>(1, 4, 3, 1, 1, rng);
  seq.emplace<MaxPool2D>(2);
  seq.emplace<Flatten>();
  seq.emplace<Dense>(4 * 8 * 8, 10, rng);
  const auto s = seq.output_shape({2, 1, 16, 16});
  EXPECT_EQ(s, (std::vector<std::int64_t>{2, 10}));
}

TEST(Sequential, SetFrozenMarksAllParams) {
  Rng rng(6);
  Sequential seq;
  seq.emplace<Conv2D>(1, 2, 3, 1, 1, rng);
  seq.emplace<Dense>(8, 2, rng);
  seq.set_frozen(true);
  for (Param* p : seq.params()) EXPECT_TRUE(p->frozen);
  seq.set_frozen(false);
  for (Param* p : seq.params()) EXPECT_FALSE(p->frozen);
}

TEST(Serialize, RoundTripRestoresWeights) {
  Rng rng(7);
  Dense a(5, 3, rng), b(5, 3, rng);
  std::stringstream ss;
  save_params(ss, a.params());
  load_params(ss, b.params());
  for (std::size_t p = 0; p < a.params().size(); ++p) {
    const Tensor& ta = a.params()[p]->value;
    const Tensor& tb = b.params()[p]->value;
    ASSERT_EQ(ta.size(), tb.size());
    for (std::int64_t i = 0; i < ta.size(); ++i) EXPECT_EQ(ta[i], tb[i]);
  }
}

TEST(Serialize, RejectsShapeMismatch) {
  Rng rng(8);
  Dense a(5, 3, rng), b(5, 4, rng);
  std::stringstream ss;
  save_params(ss, a.params());
  EXPECT_THROW(load_params(ss, b.params()), std::runtime_error);
}

TEST(Serialize, RejectsBadMagic) {
  Rng rng(9);
  Dense a(2, 2, rng);
  std::stringstream ss("not a model file at all................");
  EXPECT_THROW(load_params(ss, a.params()), std::runtime_error);
}

TEST(Serialize, RejectsCorruptRankBeforeSizingAnything) {
  Rng rng(11);
  Dense a(2, 2, rng);
  std::stringstream ss;
  save_params(ss, a.params());
  std::string bytes = ss.str();
  // The first param's rank follows the 8-byte magic and the 8-byte count.
  const std::uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + 16, &huge, sizeof(huge));
  std::stringstream corrupt(bytes);
  try {
    load_params(corrupt, a.params());
    ADD_FAILURE() << "corrupt rank loaded";
  } catch (const DnnspmvError& e) {
    EXPECT_EQ(e.code(), errc::data_error);
  }
}

TEST(Serialize, CopyParamsTransfersValues) {
  Rng rng(10);
  Dense a(4, 4, rng), b(4, 4, rng);
  copy_params(a.params(), b.params());
  for (std::size_t p = 0; p < a.params().size(); ++p)
    for (std::int64_t i = 0; i < a.params()[p]->value.size(); ++i)
      EXPECT_EQ(a.params()[p]->value[i], b.params()[p]->value[i]);
}

TEST(ParamUtils, CountAndZero) {
  Rng rng(11);
  Dense d(3, 2, rng);
  EXPECT_EQ(param_count(d.params()), 3 * 2 + 2);
  d.params()[0]->grad.fill(5.0f);
  zero_grads(d.params());
  EXPECT_FLOAT_EQ(d.params()[0]->grad.max_abs(), 0.0f);
}

}  // namespace
}  // namespace dnnspmv
