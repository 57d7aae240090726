#include "nn/dense.hpp"

#include <cmath>

#include "tensor/gemm.hpp"

namespace dnnspmv {

Dense::Dense(std::int64_t in_features, std::int64_t out_features, Rng& rng)
    : in_features_(in_features), out_features_(out_features) {
  DNNSPMV_CHECK(in_features > 0 && out_features > 0);
  weight_.name = "dense_w";
  weight_.value.resize({out_features, in_features});
  weight_.value.fill_normal(
      rng, static_cast<float>(std::sqrt(2.0 / in_features)));
  weight_.grad.resize({out_features, in_features});
  bias_.name = "dense_b";
  bias_.value.resize({out_features});
  bias_.grad.resize({out_features});
}

std::vector<std::int64_t> Dense::output_shape(
    const std::vector<std::int64_t>& in) const {
  DNNSPMV_CHECK_MSG(in.size() == 2 && in[1] == in_features_,
                    "Dense expects [batch," << in_features_ << "]");
  return {in[0], out_features_};
}

void Dense::forward(const Tensor& in, Tensor& out, bool, Workspace&) {
  const auto os = output_shape(in.shape());
  out.ensure(os);
  const std::int64_t batch = in.dim(0);
  // out[b, o] = sum_i in[b, i] * W[o, i] + b[o], bias in the epilogue.
  sgemm_bt_col_bias(batch, out_features_, in_features_, 1.0f, in.data(),
                    weight_.value.data(), 0.0f, out.data(),
                    bias_.value.data());
}

void Dense::backward(const Tensor& in, const Tensor& out,
                     const Tensor& grad_out, Tensor& grad_in, Workspace& ws) {
  backward_params(in, out, grad_out, ws);
  grad_in.ensure(in.shape());
  // dIn = go * W
  sgemm(in.dim(0), in_features_, out_features_, 1.0f, grad_out.data(),
        weight_.value.data(), 0.0f, grad_in.data());
}

void Dense::backward_params(const Tensor& in, const Tensor&,
                            const Tensor& grad_out, Workspace&) {
  const std::int64_t batch = in.dim(0);
  // dW[o, i] += sum_b go[b, o] * in[b, i]  (= go^T * in)
  sgemm_at(out_features_, in_features_, batch, 1.0f, grad_out.data(),
           in.data(), 1.0f, weight_.grad.data());
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* row = grad_out.data() + b * out_features_;
    for (std::int64_t o = 0; o < out_features_; ++o)
      bias_.grad[o] += row[o];
  }
}

}  // namespace dnnspmv
