// Bit-identity of the training loop's shortcuts. Each shortcut skips work
// whose result nothing reads, or reorganizes work without touching any
// float operation's inputs or order, so every comparison here is bitwise:
//
//   * Conv2D::backward reusing its training forward's im2col lowering;
//   * no input gradient for a tower's first layer;
//   * the vectorizable ReLU backward;
//   * MaxPool2D's 2×2/2 training path;
//   * top evolvement training the head on cached CNN codes;
//   * Conv2D against the staged pieces (lowering, GEMMs, NCHW copies,
//     serial bias chains) it is built from;
//   * every layer writing its whole output and input gradient, whatever
//     its destination last held.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <string>

#include "core/selector.hpp"
#include "core/trainer.hpp"
#include "core/transfer.hpp"
#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/flatten.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/pool.hpp"
#include "nn/serialize.hpp"
#include "tensor/gemm.hpp"

namespace dnnspmv {
namespace {

// Bitwise equality of two float ranges (NaN payloads and signed zeros
// included).
bool same_bits(const float* a, const float* b, std::int64_t n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(float)) == 0;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() && same_bits(a.data(), b.data(), a.size());
}

Tensor random_tensor(std::vector<std::int64_t> shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

// Gradients of every parameter, concatenated.
std::vector<float> grads_of(const std::vector<Param*>& ps) {
  std::vector<float> out;
  for (const Param* p : ps)
    out.insert(out.end(), p->grad.data(), p->grad.data() + p->grad.size());
  return out;
}

std::vector<float> values_of(const std::vector<Param*>& ps) {
  std::vector<float> out;
  for (const Param* p : ps)
    out.insert(out.end(), p->value.data(), p->value.data() + p->value.size());
  return out;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         same_bits(a.data(), b.data(), static_cast<std::int64_t>(a.size()));
}

// ---------------------------------------------------------------------------
// Conv2D: the lowering a training forward leaves in the workspace.

struct ConvGrads {
  Tensor grad_in;
  std::vector<float> params;
};

// Backward after a training forward of `a`. With `other`, an inference
// forward of another batch runs in between in the same workspace, which
// overwrites the lowering and forces backward to build it again.
ConvGrads conv_backward(Conv2D& conv, const Tensor& a, const Tensor& other,
                        const Tensor& grad_out, bool intervene) {
  zero_grads(conv.params());
  Workspace ws;
  Tensor out, other_out;
  conv.forward(a, out, /*training=*/true, ws);
  if (intervene) conv.forward(other, other_out, /*training=*/false, ws);
  ConvGrads g;
  conv.backward(a, out, grad_out, g.grad_in, ws);
  g.params = grads_of(conv.params());
  return g;
}

TEST(TrainBitExact, ConvReusedLoweringEqualsRelowered) {
  // conv1's geometry (3×3, stride 1, pad 1) and conv2's (stride 2).
  for (const std::int64_t stride : {1, 2}) {
    Rng rng(40 + static_cast<std::uint64_t>(stride));
    Conv2D conv(2, 5, 3, stride, 1, rng);
    const Tensor a = random_tensor({3, 2, 9, 7}, rng);
    const Tensor other = random_tensor({4, 2, 9, 7}, rng);
    const Tensor grad_out =
        random_tensor(conv.output_shape(a.shape()), rng);
    const ConvGrads reused = conv_backward(conv, a, other, grad_out, false);
    const ConvGrads relowered = conv_backward(conv, a, other, grad_out, true);
    EXPECT_TRUE(same_bits(reused.grad_in, relowered.grad_in))
        << "stride " << stride;
    EXPECT_TRUE(same_bits(reused.params, relowered.params))
        << "stride " << stride;
  }
}

TEST(TrainBitExact, ConvBackwardInAnotherWorkspaceRelowers) {
  Rng rng(44);
  Conv2D conv(1, 4, 3, 1, 1, rng);
  const Tensor a = random_tensor({2, 1, 8, 8}, rng);
  const Tensor grad_out = random_tensor(conv.output_shape(a.shape()), rng);
  const ConvGrads same_ws = conv_backward(conv, a, a, grad_out, false);

  zero_grads(conv.params());
  Workspace fwd_ws, bwd_ws;
  Tensor out, grad_in;
  conv.forward(a, out, /*training=*/true, fwd_ws);
  conv.backward(a, out, grad_out, grad_in, bwd_ws);
  EXPECT_TRUE(same_bits(same_ws.grad_in, grad_in));
  EXPECT_TRUE(same_bits(same_ws.params, grads_of(conv.params())));
}

// Conv2D as the staged pieces compute it: the batch lowered into one
// [psz, n·opix] matrix, one GEMM with the bias in its epilogue, a scatter
// to NCHW; grad_out gathered into [oc, n·opix], dW by sgemm_bt, each bias
// gradient one serial double chain, and dX by sgemm_at plus col2im_batch.
struct ConvPass {
  Tensor out, grad_in;
  std::vector<float> dw, db;
};

ConvPass staged_conv(Conv2D& conv, const Tensor& in, const Tensor& grad_out,
                     const std::vector<float>& dw0,
                     const std::vector<float>& db0) {
  const ConvGeom g{in.dim(1),          in.dim(2),          in.dim(3),
                   conv.kernel_size(), conv.kernel_size(), conv.stride(),
                   conv.stride(),      conv.padding(),     conv.padding()};
  const std::int64_t batch = in.dim(0), oc = conv.out_channels();
  const std::int64_t opix = g.out_h() * g.out_w(), psz = g.patch_size();
  const std::int64_t ncols = batch * opix;
  const Param& w = *conv.params()[0];
  const Param& b = *conv.params()[1];
  std::vector<float> col(static_cast<std::size_t>(psz * ncols));
  std::vector<float> mat(static_cast<std::size_t>(oc * ncols));
  im2col_batch(g, batch, in.data(), col.data());
  sgemm_row_bias(oc, ncols, psz, 1.0f, w.value.data(), col.data(), 0.0f,
                 mat.data(), b.value.data());
  ConvPass r;
  r.out = Tensor({batch, oc, g.out_h(), g.out_w()});
  for (std::int64_t n = 0; n < batch; ++n)
    for (std::int64_t c = 0; c < oc; ++c)
      std::memcpy(r.out.data() + (n * oc + c) * opix,
                  mat.data() + c * ncols + n * opix,
                  static_cast<std::size_t>(opix) * sizeof(float));
  for (std::int64_t n = 0; n < batch; ++n)
    for (std::int64_t c = 0; c < oc; ++c)
      std::memcpy(mat.data() + c * ncols + n * opix,
                  grad_out.data() + (n * oc + c) * opix,
                  static_cast<std::size_t>(opix) * sizeof(float));
  r.dw = dw0;
  sgemm_bt(oc, psz, ncols, 1.0f, mat.data(), col.data(), 1.0f, r.dw.data());
  r.db = db0;
  for (std::int64_t c = 0; c < oc; ++c) {
    double acc = 0.0;
    for (std::int64_t p = 0; p < ncols; ++p) acc += mat[c * ncols + p];
    r.db[c] += static_cast<float>(acc);
  }
  std::vector<float> gcol(static_cast<std::size_t>(psz * ncols));
  sgemm_at(psz, ncols, oc, 1.0f, w.value.data(), mat.data(), 0.0f,
           gcol.data());
  r.grad_in = Tensor(in.shape());
  col2im_batch(g, batch, gcol.data(), r.grad_in.data());
  return r;
}

TEST(TrainBitExact, ConvMatchesStagedPiecesBitwise) {
  struct Geom {
    std::int64_t cin, cout, stride, h, w;
  };
  // The selector towers' convs, and a geometry whose output pixels are no
  // multiple of the GEMM's 16-column tile.
  const Geom geoms[] = {
      {1, 12, 1, 32, 16},  // conv1: 512 output pixels
      {12, 24, 2, 16, 8},  // conv2: 32
      {3, 5, 2, 9, 7},     // 5×4 = 20: staged copies
  };
  for (const Geom& gm : geoms) {
    for (const std::int64_t batch : {1, 3, 32}) {
      Rng rng(static_cast<std::uint64_t>(90 + gm.cout + batch));
      Conv2D conv(gm.cin, gm.cout, 3, gm.stride, 1, rng);
      conv.params()[1]->value.fill_uniform(rng, -0.5f, 0.5f);
      const Tensor in = random_tensor({batch, gm.cin, gm.h, gm.w}, rng);
      const Tensor grad_out =
          random_tensor(conv.output_shape(in.shape()), rng);
      // Nonzero starting gradients: backward accumulates into them.
      conv.params()[0]->grad.fill_uniform(rng, -1.0f, 1.0f);
      conv.params()[1]->grad.fill_uniform(rng, -1.0f, 1.0f);
      const std::vector<float> dw0(
          conv.params()[0]->grad.data(),
          conv.params()[0]->grad.data() + conv.params()[0]->grad.size());
      const std::vector<float> db0(
          conv.params()[1]->grad.data(),
          conv.params()[1]->grad.data() + conv.params()[1]->grad.size());
      const ConvPass ref = staged_conv(conv, in, grad_out, dw0, db0);

      Workspace ws;
      Tensor out, grad_in;
      conv.forward(in, out, /*training=*/true, ws);
      conv.backward(in, out, grad_out, grad_in, ws);
      const std::string where = "cin " + std::to_string(gm.cin) +
                                " stride " + std::to_string(gm.stride) +
                                " batch " + std::to_string(batch);
      EXPECT_TRUE(same_bits(out, ref.out)) << where;
      EXPECT_TRUE(same_bits(grad_in, ref.grad_in)) << where;
      EXPECT_TRUE(same_bits(grads_of({conv.params()[0]}), ref.dw)) << where;
      EXPECT_TRUE(same_bits(grads_of({conv.params()[1]}), ref.db)) << where;

      std::copy(dw0.begin(), dw0.end(), conv.params()[0]->grad.data());
      std::copy(db0.begin(), db0.end(), conv.params()[1]->grad.data());
      conv.backward_params(in, out, grad_out, ws);
      EXPECT_TRUE(same_bits(grads_of({conv.params()[0]}), ref.dw)) << where;
      EXPECT_TRUE(same_bits(grads_of({conv.params()[1]}), ref.db)) << where;
    }
  }
}

// ---------------------------------------------------------------------------
// Destinations that last held another shape.

// A destination whose last shape was larger, filled with NaN.
Tensor stale_tensor(std::int64_t size) {
  Tensor t({size + 37});
  t.fill(std::numeric_limits<float>::quiet_NaN());
  return t;
}

// Forward and backward of one layer, into fresh destinations and again
// into stale ones: every output and input gradient must come out the same
// bits. `make` builds the layer afresh for each pass, so layers with state
// (dropout's generator) start alike.
template <typename Make>
void expect_overwrites(Make make, const Tensor& in, bool training,
                       const std::string& what) {
  Rng rng(66);
  std::unique_ptr<Layer> fresh_layer = make();
  Workspace fresh_ws;
  Tensor out, grad_in;
  fresh_layer->forward(in, out, training, fresh_ws);
  const Tensor grad_out = random_tensor(out.shape(), rng);
  fresh_layer->backward(in, out, grad_out, grad_in, fresh_ws);

  std::unique_ptr<Layer> stale_layer = make();
  Workspace stale_ws;
  Tensor stale_out = stale_tensor(out.size());
  Tensor stale_grad_in = stale_tensor(grad_in.size());
  stale_layer->forward(in, stale_out, training, stale_ws);
  stale_layer->backward(in, stale_out, grad_out, stale_grad_in, stale_ws);
  EXPECT_TRUE(same_bits(out, stale_out)) << what;
  EXPECT_TRUE(same_bits(grad_in, stale_grad_in)) << what;
}

TEST(TrainBitExact, LayersOverwriteStaleDestinations) {
  Rng rng(65);
  const Tensor image = random_tensor({3, 2, 9, 8}, rng);
  const Tensor conv1_in = random_tensor({2, 1, 32, 16}, rng);
  const Tensor flat = random_tensor({5, 24}, rng);
  // Staged conv (20 output pixels) and NCHW-direct conv (512).
  const auto conv_staged = [] {
    Rng r(1);
    return std::make_unique<Conv2D>(2, 5, 3, 2, 1, r);
  };
  const auto conv_direct = [] {
    Rng r(2);
    return std::make_unique<Conv2D>(1, 12, 3, 1, 1, r);
  };
  const auto dense = [] {
    Rng r(3);
    return std::make_unique<Dense>(24, 7, r);
  };
  const auto relu = [] { return std::make_unique<ReLU>(); };
  const auto pool = [] { return std::make_unique<MaxPool2D>(2); };
  const auto flatten = [] { return std::make_unique<Flatten>(); };
  const auto dropout = [] { return std::make_unique<Dropout>(0.4, 9); };
  for (const bool training : {true, false}) {
    const std::string mode = training ? " training" : " inference";
    expect_overwrites(conv_staged, image, training, "conv opix 20" + mode);
    expect_overwrites(conv_direct, conv1_in, training, "conv opix 512" + mode);
    expect_overwrites(relu, image, training, "relu" + mode);
    expect_overwrites(pool, image, training, "maxpool" + mode);
    expect_overwrites(flatten, image, training, "flatten" + mode);
    expect_overwrites(dense, flat, training, "dense" + mode);
    expect_overwrites(dropout, flat, training, "dropout" + mode);
  }
}

// ---------------------------------------------------------------------------
// No input gradient for a tower's first layer.

CnnSpec small_spec() {
  CnnSpec spec;
  spec.input_hw = {{32, 16}, {32, 16}};
  spec.num_classes = 4;
  spec.conv1_channels = 4;
  spec.conv2_channels = 6;
  spec.head_hidden = 16;
  return spec;
}

TEST(TrainBitExact, SkippingFirstLayerInputGradKeepsParamGrads) {
  const CnnSpec spec = small_spec();
  MergeNet net = build_cnn(spec);
  MergeNet ref = build_cnn(spec);
  Rng rng(50);
  const std::vector<Tensor> inputs = {random_tensor({5, 1, 32, 16}, rng),
                                      random_tensor({5, 1, 32, 16}, rng)};
  const std::vector<std::int32_t> labels = {0, 3, 1, 2, 1};

  Workspace ws;
  Tensor logits, grad;
  net.forward(inputs, logits, /*training=*/true, ws);
  softmax_cross_entropy(logits, labels, grad);
  net.backward(inputs, grad, ws);

  // Reference: the same pass layer by layer, with every tower building its
  // full input gradient.
  Workspace rws;
  std::vector<Tensor> tower_out(2);
  for (std::size_t t = 0; t < 2; ++t)
    ref.tower(t).forward(inputs[t], tower_out[t], /*training=*/true, rws);
  // Sample b's codes are tower 0's features, then tower 1's.
  const std::int64_t batch = 5, feat = tower_out[0].size() / batch;
  const auto code = [&](Tensor& codes, std::int64_t b, std::size_t t) {
    return codes.data() + (2 * b + static_cast<std::int64_t>(t)) * feat;
  };
  Tensor merged({batch, 2 * feat});
  for (std::int64_t b = 0; b < batch; ++b)
    for (std::size_t t = 0; t < 2; ++t)
      std::copy(tower_out[t].data() + b * feat,
                tower_out[t].data() + (b + 1) * feat, code(merged, b, t));
  Tensor ref_logits, ref_grad, grad_merged;
  ref.head().forward(merged, ref_logits, /*training=*/true, rws);
  ASSERT_TRUE(same_bits(logits, ref_logits));
  softmax_cross_entropy(ref_logits, labels, ref_grad);
  ref.head().backward(merged, ref_logits, ref_grad, grad_merged, rws);
  for (std::size_t t = 0; t < 2; ++t) {
    Tensor gslice(tower_out[t].shape()), gin;
    for (std::int64_t b = 0; b < batch; ++b)
      std::copy(code(grad_merged, b, t), code(grad_merged, b, t) + feat,
                gslice.data() + b * feat);
    ref.tower(t).backward(inputs[t], tower_out[t], gslice, gin, rws);
    ASSERT_TRUE(gin.shape() == inputs[t].shape());
  }
  EXPECT_TRUE(same_bits(grads_of(net.params()), grads_of(ref.params())));
}

// ---------------------------------------------------------------------------
// ReLU backward.

TEST(TrainBitExact, ReluBackwardMatchesScalarReference) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {0.0f, -0.0f, nan, inf, -inf, 1.5f, -2.5f,
                            1e-40f, -1e-40f, 3.0f, -nan};
  const int ns = static_cast<int>(std::size(specials));
  for (const std::int64_t n : {1, 7, 8, 9, 33}) {
    // Input and gradient walk the specials at coprime strides, so every
    // pairing occurs across the lengths.
    for (int shift = 0; shift < ns; ++shift) {
      Tensor in({n}), go({n});
      for (std::int64_t i = 0; i < n; ++i) {
        in[i] = specials[(i + shift) % ns];
        go[i] = specials[(3 * i + 2 * shift + 1) % ns];
      }
      Tensor ref({n});
      for (std::int64_t i = 0; i < n; ++i)
        ref[i] = in[i] > 0.0f ? go[i] : 0.0f;
      ReLU relu;
      Workspace ws;
      Tensor out, gi;
      relu.forward(in, out, /*training=*/true, ws);
      relu.backward(in, out, go, gi, ws);
      EXPECT_TRUE(same_bits(gi, ref)) << "n " << n << " shift " << shift;
    }
  }
}

// ---------------------------------------------------------------------------
// MaxPool2D 2×2/2 training path.

// The generic rule: each window starts from -1e30 at plane offset 0 and
// takes a strictly greater value in row-major window order, so the first
// maximum wins.
void reference_pool(const Tensor& in, Tensor& out, Tensor& grad_in,
                    const Tensor& grad_out) {
  const std::int64_t planes = in.dim(0) * in.dim(1);
  const std::int64_t h = in.dim(2), w = in.dim(3);
  const std::int64_t oh = (h - 2) / 2 + 1, ow = (w - 2) / 2 + 1;
  out = Tensor({in.dim(0), in.dim(1), oh, ow});
  grad_in = Tensor(in.shape());
  for (std::int64_t pl = 0; pl < planes; ++pl) {
    const float* src = in.data() + pl * h * w;
    for (std::int64_t y = 0; y < oh; ++y)
      for (std::int64_t x = 0; x < ow; ++x) {
        float best = -1e30f;
        std::int64_t besti = 0;
        for (std::int64_t dy = 0; dy < 2; ++dy)
          for (std::int64_t dx = 0; dx < 2; ++dx) {
            const std::int64_t idx = (2 * y + dy) * w + 2 * x + dx;
            if (src[idx] > best) {
              best = src[idx];
              besti = idx;
            }
          }
        const std::int64_t o = pl * oh * ow + y * ow + x;
        out[o] = best;
        grad_in[pl * h * w + besti] += grad_out[o];
      }
  }
}

TEST(TrainBitExact, MaxPoolFastPathMatchesGenericReference) {
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<std::vector<std::int64_t>> shapes = {
      {1, 1, 2, 2}, {2, 3, 7, 9}, {1, 2, 8, 16}, {3, 1, 5, 4},
      {1, 1, 32, 17}, {2, 2, 3, 11}};
  Rng rng(60);
  for (const auto& shape : shapes) {
    Tensor in(shape);
    // Few distinct values make ties common; the extremes cover windows
    // that never beat the -1e30 start.
    const float pool[] = {0.0f, 1.0f, 2.0f, 2.0f, -1.0f, -0.0f, -inf, -1e31f};
    for (std::int64_t i = 0; i < in.size(); ++i)
      in[i] = pool[rng.uniform_u64(std::size(pool))];
    // One plane that is entirely below the start value.
    for (std::int64_t i = 0; i < shape[2] * shape[3]; ++i) in[i] = -inf;
    MaxPool2D mp(2);
    Workspace ws;
    Tensor out, gin;
    mp.forward(in, out, /*training=*/true, ws);
    const Tensor grad_out = random_tensor(out.shape(), rng);
    mp.backward(in, out, grad_out, gin, ws);
    Tensor ref_out, ref_gin;
    reference_pool(in, ref_out, ref_gin, grad_out);
    EXPECT_TRUE(same_bits(out, ref_out)) << "H " << shape[2] << " W "
                                         << shape[3];
    EXPECT_TRUE(same_bits(gin, ref_gin)) << "H " << shape[2] << " W "
                                         << shape[3];
  }
}

// ---------------------------------------------------------------------------
// Head training on cached codes.

Dataset toy_dataset(int n, int classes, std::uint64_t seed) {
  Dataset ds;
  ds.candidates = {Format::kCoo, Format::kCsr, Format::kEll, Format::kDia};
  ds.candidates.resize(static_cast<std::size_t>(classes));
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    Sample s;
    s.label = static_cast<std::int32_t>(
        rng.uniform_u64(static_cast<std::uint64_t>(classes)));
    for (int src = 0; src < 2; ++src) {
      Tensor t({32, 16});
      const float base = src == s.label % 2 ? 0.8f : 0.2f;
      for (std::int64_t j = 0; j < t.size(); ++j)
        t[j] = base + static_cast<float>(rng.uniform(-0.2, 0.2));
      s.inputs.push_back(std::move(t));
    }
    ds.samples.push_back(std::move(s));
  }
  return ds;
}

// The training loop as it runs the full MergeNet forward and backward on
// every step.
void reference_train(MergeNet& net, const Dataset& data, int net_inputs,
                     const TrainConfig& cfg, std::size_t head) {
  Adam opt(net.params(), cfg.lr);
  Workspace ws;
  Rng rng(cfg.seed);
  std::vector<std::int32_t> order(data.samples.size());
  std::iota(order.begin(), order.end(), 0);
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    if (cfg.epochs >= 6 && epoch == (cfg.epochs * 2) / 3)
      opt.set_lr(cfg.lr * 0.3);
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t off = 0; off < order.size();
         off += static_cast<std::size_t>(cfg.batch)) {
      const std::size_t end =
          std::min(order.size(), off + static_cast<std::size_t>(cfg.batch));
      const std::vector<std::int32_t> idx(order.begin() + off,
                                          order.begin() + end);
      const std::vector<Tensor> inputs = assemble_batch(data, idx, net_inputs);
      std::vector<std::int32_t> labels;
      for (std::int32_t i : idx)
        labels.push_back(data.samples[static_cast<std::size_t>(i)].label);
      Tensor logits, grad;
      net.forward(inputs, logits, /*training=*/true, ws, head);
      softmax_cross_entropy(logits, labels, grad);
      net.backward(inputs, grad, ws);
      opt.step();
    }
  }
}

TrainConfig head_cfg() {
  TrainConfig cfg;
  cfg.epochs = 6;  // long enough for the step decay
  cfg.batch = 8;
  cfg.seed = 71;
  return cfg;
}

TEST(TrainBitExact, TrainCnnOnFrozenTowersMatchesFullPasses) {
  const CnnSpec spec = small_spec();
  const Dataset data = toy_dataset(37, 4, 70);  // a ragged last batch
  MergeNet net = build_cnn(spec);
  MergeNet ref = build_cnn(spec);
  net.freeze_towers();
  ref.freeze_towers();
  train_cnn(net, data, 2, head_cfg());
  reference_train(ref, data, 2, head_cfg(), 0);
  EXPECT_TRUE(same_bits(values_of(net.params()), values_of(ref.params())));
}

// The source net's weights, copied into a fresh net of the same spec with
// `heads` heads (head 1, when asked for, keeps build_cnn's fresh weights).
MergeNet warm_copy(const CnnSpec& spec, MergeNet& source, std::size_t heads) {
  MergeNet net = build_cnn(spec, heads);
  for (std::size_t t = 0; t < net.num_towers(); ++t)
    copy_params(source.tower(t).params(), net.tower(t).params());
  for (std::size_t h = 0; h < source.num_heads(); ++h)
    copy_params(source.head_params(h), net.head_params(h));
  return net;
}

TEST(TrainBitExact, TopEvolveMigrationMatchesFullPasses) {
  CnnSpec spec = small_spec();
  MergeNet source = build_cnn(spec);
  TrainConfig src_cfg = head_cfg();
  src_cfg.epochs = 2;
  train_cnn(source, toy_dataset(24, 4, 80), 2, src_cfg);
  const Dataset target = toy_dataset(29, 4, 81);
  for (const std::size_t head : {std::size_t{0}, std::size_t{1}}) {
    MergeNet migrated = migrate_model(spec, source, MigrationMethod::kTopEvolve,
                                      target, head_cfg(), head);
    MergeNet ref = warm_copy(spec, source, head + 1);
    ref.freeze_towers(head);
    reference_train(ref, target, 2, head_cfg(), head);
    EXPECT_TRUE(
        same_bits(values_of(migrated.params()), values_of(ref.params())))
        << "head " << head;
  }
}

TEST(TrainBitExact, FitSpmmMatchesFullPasses) {
  SelectorOptions opts;
  opts.train = head_cfg();
  opts.train.epochs = 3;
  FormatSelector sel(opts);
  sel.fit(toy_dataset(30, 4, 90));
  FormatSelector before = sel.clone();
  const Dataset spmm = toy_dataset(26, 4, 91);
  sel.fit_spmm(spmm);

  // The selector's net: two histogram towers of rep_rows × rep_bins, the
  // model-zoo defaults otherwise; fit_spmm appends head 1 and trains it
  // for twice fit()'s epochs over the frozen towers.
  CnnSpec spec;
  spec.input_hw = {{opts.rep_rows, opts.rep_bins},
                   {opts.rep_rows, opts.rep_bins}};
  spec.num_classes = 4;
  spec.seed = opts.train.seed;
  MergeNet ref = warm_copy(spec, before.net(), 2);
  ref.freeze_towers(1);
  TrainConfig cfg = opts.train;
  cfg.epochs *= 2;
  reference_train(ref, spmm, 2, cfg, 1);
  EXPECT_TRUE(
      same_bits(values_of(sel.net().params()), values_of(ref.params())));
}

}  // namespace
}  // namespace dnnspmv
