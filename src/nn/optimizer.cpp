#include "nn/optimizer.hpp"

#include <cmath>

namespace dnnspmv {

Adam::Adam(std::vector<Param*> params, double lr, double beta1, double beta2,
           double eps)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Param* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const float alpha = static_cast<float>(lr_ * std::sqrt(bc2) / bc1);
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Param& p = *params_[i];
    if (p.frozen) {
      p.grad.zero();
      continue;
    }
    Tensor& m = m_[i];
    Tensor& v = v_[i];
    const float b1 = static_cast<float>(beta1_);
    const float b2 = static_cast<float>(beta2_);
    const float eps = static_cast<float>(eps_);
    for (std::int64_t j = 0; j < p.value.size(); ++j) {
      const float g = p.grad[j];
      m[j] = b1 * m[j] + (1.0f - b1) * g;
      v[j] = b2 * v[j] + (1.0f - b2) * g * g;
      p.value[j] -= alpha * m[j] / (std::sqrt(v[j]) + eps);
    }
    p.grad.zero();
  }
}

}  // namespace dnnspmv
