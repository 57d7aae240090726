// 2-D convolution layer (NCHW), lowered to GEMM via im2col.
//
// The whole batch is lowered at once: forward builds a single
// [patch_size, batch*out_pixels] column matrix and issues ONE GEMM with the
// bias folded into its epilogue, so parallelism scales with the batch
// rather than just out_channels. When a sample's output pixels fill whole
// 16-column GEMM tiles (the selector's convs: 512 and 32 pixels), the GEMMs
// write the output and read grad_out in NCHW directly; other geometries
// stage them through [out_c, batch*out_pixels] matrices. The col/staging
// matrices live in the Workspace and are reused across calls. Batched and
// per-sample forward
// produce bitwise-identical outputs (the GEMM's per-column accumulation
// order is position-independent; tests/test_gemm_property.cpp holds this).
//
// Backward needs the same lowered input its forward built. It reuses the
// workspace's copy when the last forward was a training forward of the same
// input in the same workspace, and lowers again otherwise.
#pragma once

#include "nn/layer.hpp"
#include "tensor/im2col.hpp"

namespace dnnspmv {

class Conv2D final : public Layer {
 public:
  /// Filters are out_channels × in_channels × k × k, He-initialized.
  Conv2D(std::int64_t in_channels, std::int64_t out_channels, std::int64_t k,
         std::int64_t stride, std::int64_t pad, Rng& rng);

  void forward(const Tensor& in, Tensor& out, bool training,
               Workspace& ws) override;
  void backward(const Tensor& in, const Tensor& out, const Tensor& grad_out,
                Tensor& grad_in, Workspace& ws) override;
  /// Skips the input-gradient GEMM and col2im.
  void backward_params(const Tensor& in, const Tensor& out,
                       const Tensor& grad_out, Workspace& ws) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  std::string name() const override { return "conv2d"; }
  std::vector<std::int64_t> output_shape(
      const std::vector<std::int64_t>& in) const override;

  std::int64_t in_channels() const { return in_channels_; }
  std::int64_t out_channels() const { return out_channels_; }
  std::int64_t kernel_size() const { return k_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t padding() const { return pad_; }

 private:
  ConvGeom geom(const std::vector<std::int64_t>& in_shape) const;
  void backward_impl(const Tensor& in, const Tensor& grad_out,
                     Tensor* grad_in, Workspace& ws);

  std::int64_t in_channels_, out_channels_, k_, stride_, pad_;
  Param weight_;  // [out_c, in_c*k*k]
  Param bias_;    // [out_c]
  // The input whose lowering the last training forward left in workspace
  // `lowered_ws_`; lowered_in_ is null after any other forward.
  std::uint64_t lowered_ws_ = 0;
  const float* lowered_in_ = nullptr;
  std::vector<std::int64_t> lowered_shape_;
};

}  // namespace dnnspmv
