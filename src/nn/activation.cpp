#include "nn/activation.hpp"

namespace dnnspmv {

void ReLU::forward(const Tensor& in, Tensor& out, bool, Workspace&) {
  out.ensure(in.shape());
  const std::int64_t n = in.size();
  const float* src = in.data();
  float* dst = out.data();
  for (std::int64_t i = 0; i < n; ++i) dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
}

void ReLU::backward(const Tensor& in, const Tensor&, const Tensor& grad_out,
                    Tensor& grad_in, Workspace&) {
  grad_in.ensure(in.shape());
  const std::int64_t n = in.size();
  const float* src = in.data();
  const float* go = grad_out.data();
  float* gi = grad_in.data();
  // Both sides of the select are loaded unconditionally, so the compiler
  // vectorizes it instead of branching on the data.
  for (std::int64_t i = 0; i < n; ++i) {
    const float g = go[i];
    gi[i] = src[i] > 0.0f ? g : 0.0f;
  }
}

}  // namespace dnnspmv
