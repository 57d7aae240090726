// Element-wise activation layers.
#pragma once

#include "nn/layer.hpp"

namespace dnnspmv {

class ReLU final : public Layer {
 public:
  void forward(const Tensor& in, Tensor& out, bool training,
               Workspace& ws) override;
  void backward(const Tensor& in, const Tensor& out, const Tensor& grad_out,
                Tensor& grad_in, Workspace& ws) override;
  std::string name() const override { return "relu"; }
  std::vector<std::int64_t> output_shape(
      const std::vector<std::int64_t>& in) const override {
    return in;
  }
};

}  // namespace dnnspmv
