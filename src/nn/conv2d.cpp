#include "nn/conv2d.hpp"

#include <cmath>
#include <cstring>

#include "tensor/gemm.hpp"

namespace dnnspmv {
namespace {

// Workspace slots: the staging matrices of the batched lowering.
constexpr int kColSlot = 0;    // [psz, batch*opix] lowered input
constexpr int kOutMatSlot = 1; // [out_c, batch*opix] GEMM output
constexpr int kGoMatSlot = 2;  // [out_c, batch*opix] gathered grad_out
constexpr int kGColSlot = 3;   // [psz, batch*opix] column gradients

}  // namespace

Conv2D::Conv2D(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t k, std::int64_t stride, std::int64_t pad,
               Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      k_(k),
      stride_(stride),
      pad_(pad) {
  DNNSPMV_CHECK(in_channels > 0 && out_channels > 0 && k > 0 && stride > 0 &&
                pad >= 0);
  const std::int64_t fan_in = in_channels * k * k;
  weight_.name = "conv_w";
  weight_.value.resize({out_channels, fan_in});
  weight_.value.fill_normal(rng,
                            static_cast<float>(std::sqrt(2.0 / fan_in)));
  weight_.grad.resize({out_channels, fan_in});
  bias_.name = "conv_b";
  bias_.value.resize({out_channels});
  bias_.grad.resize({out_channels});
}

ConvGeom Conv2D::geom(const std::vector<std::int64_t>& in_shape) const {
  DNNSPMV_CHECK_MSG(in_shape.size() == 4 && in_shape[1] == in_channels_,
                    "Conv2D expects NCHW with C=" << in_channels_);
  return ConvGeom{in_shape[1], in_shape[2], in_shape[3], k_, k_,
                  stride_,     stride_,     pad_,        pad_};
}

std::vector<std::int64_t> Conv2D::output_shape(
    const std::vector<std::int64_t>& in) const {
  const ConvGeom g = geom(in);
  return {in[0], out_channels_, g.out_h(), g.out_w()};
}

void Conv2D::forward(const Tensor& in, Tensor& out, bool training,
                     Workspace& ws) {
  const ConvGeom g = geom(in.shape());
  const std::int64_t batch = in.dim(0);
  const std::int64_t opix = g.out_h() * g.out_w();
  const std::int64_t psz = g.patch_size();
  const std::int64_t ncols = batch * opix;
  out.ensure(output_shape(in.shape()));

  // Lower the whole batch, run one wide GEMM with the bias in the
  // epilogue, then scatter [oc, n*opix+p] rows back to NCHW.
  float* col = ws.get(this, kColSlot, psz * ncols);
  float* out_mat = ws.get(this, kOutMatSlot, out_channels_ * ncols);
  im2col_batch(g, batch, in.data(), col);
  lowered_in_ = training ? in.data() : nullptr;
  lowered_ws_ = ws.id();
  lowered_shape_ = in.shape();
  sgemm_row_bias(out_channels_, ncols, psz, 1.0f, weight_.value.data(), col,
                 0.0f, out_mat, bias_.value.data());
#pragma omp parallel for schedule(static)
  for (std::int64_t n = 0; n < batch; ++n)
    for (std::int64_t oc = 0; oc < out_channels_; ++oc)
      std::memcpy(out.data() + (n * out_channels_ + oc) * opix,
                  out_mat + oc * ncols + n * opix,
                  static_cast<std::size_t>(opix) * sizeof(float));
}

void Conv2D::backward(const Tensor& in, const Tensor&, const Tensor& grad_out,
                      Tensor& grad_in, Workspace& ws) {
  backward_impl(in, grad_out, &grad_in, ws);
}

void Conv2D::backward_params(const Tensor& in, const Tensor&,
                             const Tensor& grad_out, Workspace& ws) {
  backward_impl(in, grad_out, nullptr, ws);
}

void Conv2D::backward_impl(const Tensor& in, const Tensor& grad_out,
                           Tensor* grad_in, Workspace& ws) {
  const ConvGeom g = geom(in.shape());
  const std::int64_t batch = in.dim(0);
  const std::int64_t opix = g.out_h() * g.out_w();
  const std::int64_t psz = g.patch_size();
  const std::int64_t ncols = batch * opix;

  // The lowered input, and grad_out gathered from NCHW into the matching
  // [oc, ncols] matrix, so both gradient GEMMs run once over the whole
  // batch.
  float* col = ws.get(this, kColSlot, psz * ncols);
  float* go_mat = ws.get(this, kGoMatSlot, out_channels_ * ncols);
  if (lowered_in_ != in.data() || lowered_ws_ != ws.id() ||
      lowered_shape_ != in.shape())
    im2col_batch(g, batch, in.data(), col);
#pragma omp parallel for schedule(static)
  for (std::int64_t n = 0; n < batch; ++n)
    for (std::int64_t oc = 0; oc < out_channels_; ++oc)
      std::memcpy(go_mat + oc * ncols + n * opix,
                  grad_out.data() + (n * out_channels_ + oc) * opix,
                  static_cast<std::size_t>(opix) * sizeof(float));

  // dW += dOut * col^T.
  sgemm_bt(out_channels_, psz, ncols, 1.0f, go_mat, col, 1.0f,
           weight_.grad.data());
#pragma omp parallel for schedule(static)
  for (std::int64_t oc = 0; oc < out_channels_; ++oc) {
    double acc = 0.0;
    const float* row = go_mat + oc * ncols;
    for (std::int64_t p = 0; p < ncols; ++p) acc += row[p];
    bias_.grad[oc] += static_cast<float>(acc);
  }
  if (!grad_in) return;
  // dCol = W^T * dOut, then scatter back to the images.
  grad_in->ensure(in.shape());
  float* gcol = ws.get(this, kGColSlot, psz * ncols);
  sgemm_at(psz, ncols, out_channels_, 1.0f, weight_.value.data(), go_mat,
           0.0f, gcol);
  col2im_batch(g, batch, gcol, grad_in->data());
}

}  // namespace dnnspmv
