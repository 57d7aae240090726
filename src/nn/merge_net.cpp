#include "nn/merge_net.hpp"

#include <algorithm>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dnnspmv {
namespace {

// Whole-net pass durations land in these histograms (µs) whenever tracing
// is on; the per-layer breakdown inside comes from Sequential's spans.
obs::Histogram& forward_hist() {
  static obs::Histogram& h =
      obs::MetricsRegistry::global().histogram("nn.forward_us");
  return h;
}

obs::Histogram& backward_hist() {
  static obs::Histogram& h =
      obs::MetricsRegistry::global().histogram("nn.backward_us");
  return h;
}

// Arena tensor slots of the backward pass.
constexpr int kGradMergedSlot = 0;  // gradient of the concatenated codes
constexpr int kGradSliceSlot = 1;   // one tower's slice of it

}  // namespace

MergeNet::MergeNet() { add_head(); }

Sequential& MergeNet::add_tower() {
  towers_.push_back(std::make_unique<Sequential>());
  return *towers_.back();
}

Sequential& MergeNet::add_head() {
  heads_.push_back(std::make_unique<Sequential>());
  return *heads_.back();
}

void concat_tower_outputs(const std::vector<Tensor>& tower_out,
                          Tensor& merged) {
  const std::int64_t batch = tower_out[0].dim(0);
  std::int64_t total = 0;
  for (const Tensor& t : tower_out) {
    DNNSPMV_CHECK_MSG(t.dim(0) == batch, "tower batch mismatch");
    total += t.size() / batch;
  }
  merged.ensure2(batch, total);
  std::int64_t off = 0;
  for (const Tensor& t : tower_out) {
    const std::int64_t feat = t.size() / batch;
    for (std::int64_t b = 0; b < batch; ++b)
      std::copy(t.data() + b * feat, t.data() + (b + 1) * feat,
                merged.data() + b * total + off);
    off += feat;
  }
}

void MergeNet::forward(const std::vector<Tensor>& inputs, Tensor& logits,
                       bool training, Workspace& ws, std::size_t head) {
  obs::Span span("nn.forward", &forward_hist());
  DNNSPMV_CHECK_MSG(inputs.size() == towers_.size(),
                    "expected " << towers_.size() << " inputs, got "
                                << inputs.size());
  DNNSPMV_CHECK_MSG(head < heads_.size(),
                    "head " << head << " of " << heads_.size());
  tower_out_.resize(towers_.size());
  for (std::size_t t = 0; t < towers_.size(); ++t)
    towers_[t]->forward(inputs[t], tower_out_[t], training, ws);
  concat_tower_outputs(tower_out_, merged_);
  head_run_ = head;
  heads_[head]->forward(merged_, head_out_, training, ws);
  logits = head_out_;
}

void MergeNet::forward_codes(const Tensor& codes,
                             const std::vector<std::int32_t>& rows,
                             Tensor& logits, bool training, Workspace& ws,
                             std::size_t head) {
  obs::Span span("nn.forward", &forward_hist());
  DNNSPMV_CHECK_MSG(head < heads_.size(),
                    "head " << head << " of " << heads_.size());
  const std::int64_t feat = codes.dim(1);
  merged_.ensure({static_cast<std::int64_t>(rows.size()), feat});
  for (std::size_t b = 0; b < rows.size(); ++b) {
    const float* src = codes.data() + rows[b] * feat;
    std::copy(src, src + feat,
              merged_.data() + static_cast<std::int64_t>(b) * feat);
  }
  head_run_ = head;
  heads_[head]->forward(merged_, head_out_, training, ws);
  logits = head_out_;
}

void MergeNet::backward(const std::vector<Tensor>& inputs,
                        const Tensor& grad_logits, Workspace& ws) {
  obs::Span span("nn.backward", &backward_hist());
  // Frozen towers take no optimizer step and read no gradient, so top
  // evolvement pays only for the head's parameter gradients.
  if (towers_frozen()) {
    heads_[head_run_]->backward_params(merged_, head_out_, grad_logits, ws);
    return;
  }
  Tensor& grad_merged = ws.arena().tensor(this, kGradMergedSlot);
  heads_[head_run_]->backward(merged_, head_out_, grad_logits, grad_merged,
                              ws);
  const std::int64_t batch = merged_.dim(0);
  const std::int64_t total = merged_.dim(1);
  Tensor& gslice = ws.arena().tensor(this, kGradSliceSlot);
  for (std::size_t t = 0, off = 0; t < towers_.size(); ++t) {
    const std::int64_t feat = tower_out_[t].size() / batch;
    gslice.ensure(tower_out_[t].shape());
    for (std::int64_t b = 0; b < batch; ++b) {
      const float* src = grad_merged.data() + b * total + off;
      std::copy(src, src + feat, gslice.data() + b * feat);
    }
    // The inputs are data, not activations: no gradient for them.
    towers_[t]->backward_params(inputs[t], tower_out_[t], gslice, ws);
    off += static_cast<std::size_t>(feat);
  }
}

std::vector<Param*> MergeNet::params() {
  std::vector<Param*> ps;
  for (auto& t : towers_)
    for (Param* p : t->params()) ps.push_back(p);
  for (auto& h : heads_)
    for (Param* p : h->params()) ps.push_back(p);
  return ps;
}

void MergeNet::freeze_towers(std::size_t train_head) {
  DNNSPMV_CHECK(train_head < heads_.size());
  for (auto& t : towers_) t->set_frozen(true);
  for (std::size_t h = 0; h < heads_.size(); ++h)
    heads_[h]->set_frozen(h != train_head);
}

bool MergeNet::towers_frozen() {
  for (auto& t : towers_)
    for (Param* p : t->params())
      if (!p->frozen) return false;
  return true;
}

void MergeNet::unfreeze_all() {
  for (auto& t : towers_) t->set_frozen(false);
  for (auto& h : heads_) h->set_frozen(false);
}

void MergeNet::codes(const std::vector<Tensor>& inputs, Tensor& out,
                     Workspace& ws, bool training) {
  DNNSPMV_CHECK(inputs.size() == towers_.size());
  tower_out_.resize(towers_.size());
  for (std::size_t t = 0; t < towers_.size(); ++t)
    towers_[t]->forward(inputs[t], tower_out_[t], training, ws);
  concat_tower_outputs(tower_out_, out);
}

}  // namespace dnnspmv
