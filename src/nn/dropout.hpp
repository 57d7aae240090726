// Inverted dropout: active only in training mode.
#pragma once

#include "nn/layer.hpp"

namespace dnnspmv {

class Dropout final : public Layer {
 public:
  Dropout(double rate, std::uint64_t seed) : rate_(rate), rng_(seed) {
    DNNSPMV_CHECK(rate >= 0.0 && rate < 1.0);
  }

  void forward(const Tensor& in, Tensor& out, bool training,
               Workspace& ws) override;
  void backward(const Tensor& in, const Tensor& out, const Tensor& grad_out,
                Tensor& grad_in, Workspace& ws) override;
  std::string name() const override { return "dropout"; }
  std::vector<std::int64_t> output_shape(
      const std::vector<std::int64_t>& in) const override {
    return in;
  }

 private:
  double rate_;
  Rng rng_;
  std::vector<float> mask_;  // keep-scale per element of the last forward
};

}  // namespace dnnspmv
