#include "nn/conv2d.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/gemm.hpp"
#include "tensor/pack.hpp"

namespace dnnspmv {
namespace {

// Workspace slots: the staging matrices of the batched lowering.
constexpr int kColSlot = 0;    // [psz, batch*opix] lowered input
constexpr int kOutMatSlot = 1; // [out_c, batch*opix] GEMM output
constexpr int kGoMatSlot = 2;  // [out_c, batch*opix] gathered grad_out
constexpr int kGColSlot = 3;   // [psz, batch*opix] column gradients

// The GEMMs read grad_out and write the output in NCHW when a sample's
// pixels fill whole 16-column tiles (gemm.hpp's *_pix operands); other
// geometries stage them through [out_c, batch*opix] matrices.
bool gemm_reads_nchw(std::int64_t opix) { return opix % kNR == 0; }

// Bias gradient channels summed side by side: each channel's sum is one
// double chain, and running several chains interleaved overlaps their add
// latencies without reordering any chain.
constexpr std::int64_t kBiasChains = 4;

// db[c] += Σ grad_out over channel c, the sum taken in (sample, pixel)
// order as one serial double chain per channel. Channel c of sample n is
// `opix` contiguous floats at go + n*sample_stride + c*chan_stride.
void add_bias_grad(const float* go, std::int64_t batch, std::int64_t channels,
                   std::int64_t opix, std::int64_t sample_stride,
                   std::int64_t chan_stride, float* db) {
  const std::int64_t groups = (channels + kBiasChains - 1) / kBiasChains;
#pragma omp parallel for schedule(static)
  for (std::int64_t gi = 0; gi < groups; ++gi) {
    const std::int64_t c0 = gi * kBiasChains;
    const std::int64_t nc = std::min(kBiasChains, channels - c0);
    double acc[kBiasChains] = {};
    for (std::int64_t n = 0; n < batch; ++n) {
      const float* r = go + n * sample_stride + c0 * chan_stride;
      if (nc == kBiasChains) {
        for (std::int64_t p = 0; p < opix; ++p)
          for (std::int64_t c = 0; c < kBiasChains; ++c)
            acc[c] += r[c * chan_stride + p];
      } else {
        for (std::int64_t c = 0; c < nc; ++c)
          for (std::int64_t p = 0; p < opix; ++p)
            acc[c] += r[c * chan_stride + p];
      }
    }
    for (std::int64_t c = 0; c < nc; ++c)
      db[c0 + c] += static_cast<float>(acc[c]);
  }
}

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

  // Lower the whole batch and run one wide GEMM with the bias in the
  // epilogue, writing NCHW directly or scattering [oc, n*opix+p] rows.
  float* col = ws.get(this, kColSlot, psz * ncols);
  im2col_batch(g, batch, in.data(), col);
  lowered_in_ = training ? in.data() : nullptr;
  lowered_ws_ = ws.id();
  lowered_shape_ = in.shape();
  if (gemm_reads_nchw(opix)) {
    sgemm_row_bias(out_channels_, ncols, psz, 1.0f, weight_.value.data(),
                   col, 0.0f, out.data(), bias_.value.data(), opix);
    return;
  }
  float* out_mat = ws.get(this, kOutMatSlot, out_channels_ * ncols);
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

  // Both gradient GEMMs run once over the whole batch, on the lowered
  // input and on grad_out as the [oc, ncols] matrix: read in NCHW, or
  // gathered into that matrix.
  float* col = ws.get(this, kColSlot, psz * ncols);
  if (lowered_in_ != in.data() || lowered_ws_ != ws.id() ||
      lowered_shape_ != in.shape())
    im2col_batch(g, batch, in.data(), col);
  const float* go = grad_out.data();
  std::int64_t go_pix = opix;
  std::int64_t sample_stride = out_channels_ * opix, chan_stride = opix;
  if (!gemm_reads_nchw(opix)) {
    float* go_mat = ws.get(this, kGoMatSlot, out_channels_ * ncols);
#pragma omp parallel for schedule(static)
    for (std::int64_t n = 0; n < batch; ++n)
      for (std::int64_t oc = 0; oc < out_channels_; ++oc)
        std::memcpy(go_mat + oc * ncols + n * opix,
                    grad_out.data() + (n * out_channels_ + oc) * opix,
                    static_cast<std::size_t>(opix) * sizeof(float));
    go = go_mat;
    go_pix = 0;
    sample_stride = opix;
    chan_stride = ncols;
  }

  // dW += dOut * col^T.
  sgemm_bt(out_channels_, psz, ncols, 1.0f, go, col, 1.0f,
           weight_.grad.data(), go_pix);
  add_bias_grad(go, batch, out_channels_, opix, sample_stride, chan_stride,
                bias_.grad.data());
  if (!grad_in) return;
  // dCol = W^T * dOut, then scatter back to the images.
  grad_in->ensure(in.shape());
  float* gcol = ws.get(this, kGColSlot, psz * ncols);
  sgemm_at(psz, ncols, out_channels_, 1.0f, weight_.value.data(), go, 0.0f,
           gcol, go_pix);
  col2im_batch(g, batch, gcol, grad_in->data());
}

}  // namespace dnnspmv
