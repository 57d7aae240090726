// Flattens NCHW activations to [batch, features].
#pragma once

#include "nn/layer.hpp"

namespace dnnspmv {

class Flatten final : public Layer {
 public:
  void forward(const Tensor& in, Tensor& out, bool training,
               Workspace& ws) override;
  void backward(const Tensor& in, const Tensor& out, const Tensor& grad_out,
                Tensor& grad_in, Workspace& ws) override;
  std::string name() const override { return "flatten"; }
  std::vector<std::int64_t> output_shape(
      const std::vector<std::int64_t>& in) const override;
};

}  // namespace dnnspmv
