#include "core/trainer.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dnnspmv {
namespace {

// Trainer stats in the global registry. Counters/gauges are always live
// (they are the epoch/step trajectory a monitoring scrape reads); the
// step-duration histogram too — one clock pair per optimizer step is
// noise next to the forward/backward inside it.
struct TrainerObs {
  obs::Counter& epochs;
  obs::Counter& steps;
  obs::Gauge& last_loss;
  obs::Histogram& step_us;

  static TrainerObs& get() {
    static TrainerObs t{
        obs::MetricsRegistry::global().counter("train.epochs"),
        obs::MetricsRegistry::global().counter("train.steps"),
        obs::MetricsRegistry::global().gauge("train.last_loss"),
        obs::MetricsRegistry::global().histogram("train.step_us")};
    return t;
  }
};

// Every sample's CNN codes, [samples, features], from the towers' training
// forward over batches of `batch` samples in dataset order.
Tensor dataset_codes(MergeNet& net, const Dataset& data, int net_inputs,
                     int batch, Workspace& ws) {
  const std::size_t n = data.samples.size();
  Tensor codes, chunk;
  std::vector<std::int32_t> idx;
  for (std::size_t off = 0; off < n; off += static_cast<std::size_t>(batch)) {
    idx.resize(std::min(n - off, static_cast<std::size_t>(batch)));
    std::iota(idx.begin(), idx.end(), static_cast<std::int32_t>(off));
    net.codes(assemble_batch(data, idx, net_inputs), chunk, ws,
              /*training=*/true);
    const std::int64_t feat = chunk.dim(1);
    if (codes.empty()) codes.resize({static_cast<std::int64_t>(n), feat});
    std::copy(chunk.data(), chunk.data() + chunk.size(),
              codes.data() + static_cast<std::int64_t>(off) * feat);
  }
  return codes;
}

}  // namespace

std::vector<Tensor> assemble_batch(
    const std::vector<const std::vector<Tensor>*>& samples, int net_inputs) {
  DNNSPMV_CHECK(!samples.empty());
  const std::vector<Tensor>& first = *samples[0];
  const int nsources = static_cast<int>(first.size());
  DNNSPMV_CHECK_MSG(net_inputs == nsources || net_inputs == 1,
                    "cannot feed " << nsources << " sources into "
                                   << net_inputs << " towers");
  const auto batch = static_cast<std::int64_t>(samples.size());

  std::vector<Tensor> out;
  if (net_inputs == nsources) {
    // One tower per source: batch tensors [B, 1, H, W].
    for (int s = 0; s < nsources; ++s) {
      const auto& shape = first[static_cast<std::size_t>(s)].shape();
      Tensor t({batch, 1, shape[0], shape[1]});
      for (std::int64_t b = 0; b < batch; ++b) {
        const std::vector<Tensor>& in = *samples[static_cast<std::size_t>(b)];
        const Tensor& src = in[static_cast<std::size_t>(s)];
        DNNSPMV_CHECK(src.shape() == shape);
        std::copy(src.data(), src.data() + src.size(),
                  t.data() + b * src.size());
      }
      out.push_back(std::move(t));
    }
  } else {
    // Early merging: stack all sources as channels of one input.
    const auto& shape = first[0].shape();
    Tensor t({batch, nsources, shape[0], shape[1]});
    const std::int64_t plane = shape[0] * shape[1];
    for (std::int64_t b = 0; b < batch; ++b) {
      const std::vector<Tensor>& in = *samples[static_cast<std::size_t>(b)];
      for (int s = 0; s < nsources; ++s) {
        const Tensor& src = in[static_cast<std::size_t>(s)];
        DNNSPMV_CHECK(src.shape() == shape);
        std::copy(src.data(), src.data() + plane,
                  t.data() + (b * nsources + s) * plane);
      }
    }
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<Tensor> assemble_batch(const Dataset& data,
                                   const std::vector<std::int32_t>& idx,
                                   int net_inputs) {
  DNNSPMV_CHECK(!idx.empty() && !data.samples.empty());
  std::vector<const std::vector<Tensor>*> samples;
  samples.reserve(idx.size());
  for (std::int32_t i : idx)
    samples.push_back(&data.samples[static_cast<std::size_t>(i)].inputs);
  return assemble_batch(samples, net_inputs);
}

TrainHistory train_cnn(MergeNet& net, const Dataset& data, int net_inputs,
                       const TrainConfig& cfg, std::size_t head) {
  DNNSPMV_CHECK(!data.samples.empty());
  TrainHistory hist;
  Adam opt(net.params(), cfg.lr);
  Workspace ws;  // one scratch workspace for the whole training run
  // Top evolvement: frozen towers give each sample the same CNN codes on
  // every step, so the codes are computed once and each step runs only the
  // head. The conv forward is batch-invariant (conv2d.hpp), so the codes,
  // the head's inputs and every weight come out the same bits as full
  // passes; dropout sits in the head only, which sees the same calls.
  const bool head_only = net.towers_frozen();
  const Tensor codes = head_only
                           ? dataset_codes(net, data, net_inputs, cfg.batch, ws)
                           : Tensor();
  std::vector<Tensor> inputs;  // stays empty on head-only steps
  Rng rng(cfg.seed);
  std::vector<std::int32_t> order(data.samples.size());
  std::iota(order.begin(), order.end(), 0);

  TrainerObs& tobs = TrainerObs::get();
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    obs::Span epoch_span("train.epoch");
    // Step decay: drop the learning rate for the final third of training.
    if (cfg.epochs >= 6 && epoch == (cfg.epochs * 2) / 3)
      opt.set_lr(cfg.lr * 0.3);
    std::shuffle(order.begin(), order.end(), rng);
    double epoch_loss = 0.0;
    int steps = 0;
    for (std::size_t off = 0; off < order.size();
         off += static_cast<std::size_t>(cfg.batch)) {
      obs::Span step_span("train.step");
      Timer step_timer;
      const std::size_t end =
          std::min(order.size(), off + static_cast<std::size_t>(cfg.batch));
      const std::vector<std::int32_t> idx(order.begin() + off,
                                          order.begin() + end);
      std::vector<std::int32_t> labels;
      labels.reserve(idx.size());
      for (std::int32_t i : idx)
        labels.push_back(data.samples[static_cast<std::size_t>(i)].label);

      Tensor logits;
      if (head_only) {
        net.forward_codes(codes, idx, logits, /*training=*/true, ws, head);
      } else {
        inputs = assemble_batch(data, idx, net_inputs);
        net.forward(inputs, logits, /*training=*/true, ws, head);
      }
      Tensor grad;
      const double loss = softmax_cross_entropy(logits, labels, grad);
      net.backward(inputs, grad, ws);
      opt.step();

      hist.step_loss.push_back(loss);
      epoch_loss += loss;
      ++steps;
      tobs.steps.inc();
      tobs.last_loss.set(loss);
      tobs.step_us.observe_seconds(step_timer.seconds());
    }
    tobs.epochs.inc();
    hist.epoch_loss.push_back(epoch_loss / std::max(steps, 1));
    if (cfg.verbose)
      std::printf("  epoch %2d/%d  loss %.4f\n", epoch + 1, cfg.epochs,
                  hist.epoch_loss.back());
  }
  return hist;
}

std::vector<std::int32_t> predict_cnn(MergeNet& net, const Dataset& data,
                                      int net_inputs, int batch) {
  Workspace ws;
  std::vector<std::int32_t> pred;
  pred.reserve(data.samples.size());
  for (std::size_t off = 0; off < data.samples.size();
       off += static_cast<std::size_t>(batch)) {
    const std::size_t end = std::min(
        data.samples.size(), off + static_cast<std::size_t>(batch));
    std::vector<std::int32_t> idx;
    for (std::size_t i = off; i < end; ++i)
      idx.push_back(static_cast<std::int32_t>(i));
    const std::vector<Tensor> inputs = assemble_batch(data, idx, net_inputs);
    Tensor logits;
    net.forward(inputs, logits, /*training=*/false, ws);
    for (std::int32_t p : argmax_rows(logits)) pred.push_back(p);
  }
  return pred;
}

double accuracy_cnn(MergeNet& net, const Dataset& data, int net_inputs) {
  const auto pred = predict_cnn(net, data, net_inputs);
  std::int64_t correct = 0;
  for (std::size_t i = 0; i < pred.size(); ++i)
    if (pred[i] == data.samples[i].label) ++correct;
  return data.samples.empty()
             ? 0.0
             : static_cast<double>(correct) /
                   static_cast<double>(data.samples.size());
}

}  // namespace dnnspmv
