#include "nn/sequential.hpp"

#include "obs/trace.hpp"

namespace dnnspmv {

void Sequential::ensure_span_names() {
  if (span_fwd_.size() == layers_.size()) return;
  span_fwd_.clear();
  span_bwd_.clear();
  for (const auto& l : layers_) {
    span_fwd_.push_back("nn." + l->name() + ".fwd");
    span_bwd_.push_back("nn." + l->name() + ".bwd");
  }
}

void Sequential::forward(const Tensor& in, Tensor& out, bool training,
                         Workspace& ws) {
  DNNSPMV_CHECK_MSG(!layers_.empty(), "empty Sequential");
  const bool traced = obs::enabled();
  if (traced) ensure_span_names();
  acts_.resize(layers_.size());
  const Tensor* cur = &in;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    obs::Span span(traced ? std::string_view(span_fwd_[i])
                          : std::string_view());
    layers_[i]->forward(*cur, acts_[i], training, ws);
    cur = &acts_[i];
  }
  out = acts_.back();
}

void Sequential::backward(const Tensor& in, const Tensor&,
                          const Tensor& grad_out, Tensor& grad_in,
                          Workspace& ws) {
  backward_through(in, grad_out, &grad_in, ws);
}

void Sequential::backward_params(const Tensor& in, const Tensor&,
                                 const Tensor& grad_out, Workspace& ws) {
  backward_through(in, grad_out, nullptr, ws);
}

void Sequential::backward_through(const Tensor& in, const Tensor& grad_out,
                                  Tensor* grad_in, Workspace& ws) {
  DNNSPMV_CHECK_MSG(acts_.size() == layers_.size(),
                    "backward without matching forward");
  const bool traced = obs::enabled();
  if (traced) ensure_span_names();
  // Layer i reads the gradient layer i+1 wrote. The gradients in between
  // alternate between two tensors of ws's arena, which keep their storage
  // from step to step.
  const Tensor* grad = &grad_out;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    obs::Span span(traced ? std::string_view(span_bwd_[i])
                          : std::string_view());
    const Tensor& input = (i == 0) ? in : acts_[i - 1];
    if (i == 0 && !grad_in) {
      layers_[0]->backward_params(input, acts_[0], *grad, ws);
      return;
    }
    Tensor& next = (i == 0) ? *grad_in
                            : ws.arena().tensor(this, static_cast<int>(i % 2));
    layers_[i]->backward(input, acts_[i], *grad, next, ws);
    grad = &next;
  }
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> ps;
  for (auto& l : layers_)
    for (Param* p : l->params()) ps.push_back(p);
  return ps;
}

std::vector<std::int64_t> Sequential::output_shape(
    const std::vector<std::int64_t>& in) const {
  std::vector<std::int64_t> s = in;
  for (const auto& l : layers_) s = l->output_shape(s);
  return s;
}

void Sequential::set_frozen(bool frozen) {
  for (auto& l : layers_)
    for (Param* p : l->params()) p->frozen = frozen;
}

}  // namespace dnnspmv
