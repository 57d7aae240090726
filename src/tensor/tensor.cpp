#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>

namespace dnnspmv {
namespace {

std::size_t element_count(const std::vector<std::int64_t>& shape) {
  std::int64_t n = 1;
  for (auto d : shape) {
    DNNSPMV_CHECK_MSG(d >= 0, "negative tensor dimension " << d);
    n *= d;
  }
  return static_cast<std::size_t>(n);
}

}  // namespace

void Tensor::resize(std::vector<std::int64_t> shape) {
  const std::size_t n = element_count(shape);
  shape_ = std::move(shape);
  data_.assign(n, 0.0f);
}

void Tensor::ensure(std::vector<std::int64_t> shape) {
  if (shape_ == shape) return;
  const std::size_t n = element_count(shape);
  shape_ = std::move(shape);
  data_.resize(n);
}

void Tensor::reshape(std::vector<std::int64_t> shape) {
  std::int64_t n = 1;
  for (auto d : shape) n *= d;
  DNNSPMV_CHECK_MSG(n == size(), "reshape element count mismatch: " << n
                                                                    << " vs "
                                                                    << size());
  shape_ = std::move(shape);
}

void Tensor::fill_normal(Rng& rng, float stddev) {
  for (auto& v : data_) v = static_cast<float>(rng.normal(0.0, stddev));
}

void Tensor::fill_uniform(Rng& rng, float lo, float hi) {
  for (auto& v : data_) v = static_cast<float>(rng.uniform(lo, hi));
}

void Tensor::add_(const Tensor& other) {
  DNNSPMV_CHECK(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Tensor::scale_(float s) {
  for (auto& v : data_) v *= s;
}

double Tensor::sum() const {
  double acc = 0.0;
  for (float v : data_) acc += v;
  return acc;
}

float Tensor::max_abs() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

}  // namespace dnnspmv
