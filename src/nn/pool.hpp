// 2×2-style max pooling (NCHW).
#pragma once

#include "nn/layer.hpp"

namespace dnnspmv {

class MaxPool2D final : public Layer {
 public:
  explicit MaxPool2D(std::int64_t k = 2, std::int64_t stride = 0)
      : k_(k), stride_(stride == 0 ? k : stride) {
    DNNSPMV_CHECK(k_ > 0 && stride_ > 0);
  }

  void forward(const Tensor& in, Tensor& out, bool training,
               Workspace& ws) override;
  void backward(const Tensor& in, const Tensor& out, const Tensor& grad_out,
                Tensor& grad_in, Workspace& ws) override;
  std::string name() const override { return "maxpool2d"; }
  std::vector<std::int64_t> output_shape(
      const std::vector<std::int64_t>& in) const override;

 private:
  /// Fills argmax_ with the flat input offset of each window's maximum
  /// (first occurrence in row-major window order, as forward records it).
  void record_argmax(const Tensor& in, Tensor& out);

  std::int64_t k_, stride_;
  std::vector<std::int32_t> argmax_;  // flat input offset of each max
  // False after an inference forward (which skips the bookkeeping);
  // backward then rebuilds argmax_ from the inputs before routing.
  bool argmax_valid_ = false;
};

}  // namespace dnnspmv
