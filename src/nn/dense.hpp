// Fully connected layer: out = in * W^T + b over a [batch, features] input.
// The bias add is folded into the GEMM epilogue (sgemm_bt_col_bias).
#pragma once

#include "nn/layer.hpp"

namespace dnnspmv {

class Dense final : public Layer {
 public:
  Dense(std::int64_t in_features, std::int64_t out_features, Rng& rng);

  void forward(const Tensor& in, Tensor& out, bool training,
               Workspace& ws) override;
  void backward(const Tensor& in, const Tensor& out, const Tensor& grad_out,
                Tensor& grad_in, Workspace& ws) override;
  /// Skips the input-gradient GEMM.
  void backward_params(const Tensor& in, const Tensor& out,
                       const Tensor& grad_out, Workspace& ws) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  std::string name() const override { return "dense"; }
  std::vector<std::int64_t> output_shape(
      const std::vector<std::int64_t>& in) const override;

  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }

 private:
  std::int64_t in_features_, out_features_;
  Param weight_;  // [out, in]
  Param bias_;    // [out]
};

}  // namespace dnnspmv
