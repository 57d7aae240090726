// Dense row-major float tensor used by the neural-network stack.
//
// Deliberately minimal: contiguous storage, an explicit shape vector, and
// the handful of element-wise helpers the NN layers need. Layout convention
// for 4-D activations is NCHW (batch, channels, height, width).
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace dnnspmv {

class Tensor {
 public:
  Tensor() = default;

  explicit Tensor(std::vector<std::int64_t> shape) { resize(std::move(shape)); }

  Tensor(std::initializer_list<std::int64_t> shape)
      : Tensor(std::vector<std::int64_t>(shape)) {}

  void resize(std::vector<std::int64_t> shape);

  /// Gives the tensor `shape` for a producer that overwrites every
  /// element: the buffer is kept, so elements up to the old size keep
  /// their stale values and only those past it start at zero (no zero-fill
  /// pass, and no allocation once the buffer has held the largest shape).
  /// Keeps steady-state forward and backward passes allocation- and
  /// memset-free.
  void ensure(std::vector<std::int64_t> shape);

  /// ensure({r, c}) without materializing a shape vector at the call site —
  /// the warm-path no-op costs two integer compares and zero allocations
  /// (the vector overload allocates its argument even when nothing
  /// changes). The streaming representation builder's steady state is built
  /// on this.
  void ensure2(std::int64_t r, std::int64_t c) {
    if (shape_.size() == 2 && shape_[0] == r && shape_[1] == c) return;
    ensure({r, c});
  }

  const std::vector<std::int64_t>& shape() const { return shape_; }
  std::int64_t dim(std::size_t i) const { return shape_.at(i); }
  std::size_t rank() const { return shape_.size(); }
  std::int64_t size() const { return static_cast<std::int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& operator[](std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  float operator[](std::int64_t i) const {
    return data_[static_cast<std::size_t>(i)];
  }

  /// 2-D indexed access (for matrices); bounds unchecked in release paths.
  float& at2(std::int64_t r, std::int64_t c) { return data_[idx2(r, c)]; }
  float at2(std::int64_t r, std::int64_t c) const { return data_[idx2(r, c)]; }

  /// 4-D NCHW access.
  float& at4(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) {
    return data_[idx4(n, c, h, w)];
  }
  float at4(std::int64_t n, std::int64_t c, std::int64_t h,
            std::int64_t w) const {
    return data_[idx4(n, c, h, w)];
  }

  /// Reinterpret with a new shape of identical element count.
  void reshape(std::vector<std::int64_t> shape);

  void fill(float v) { std::fill(data_.begin(), data_.end(), v); }
  void zero() { fill(0.0f); }

  /// Fill with N(0, stddev) samples.
  void fill_normal(Rng& rng, float stddev);

  /// Fill with U(lo, hi) samples.
  void fill_uniform(Rng& rng, float lo, float hi);

  /// this += other (shapes must match).
  void add_(const Tensor& other);

  /// this *= s.
  void scale_(float s);

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  /// Sum of all elements (double accumulator).
  double sum() const;

  /// Maximum absolute element; 0 for empty tensors.
  float max_abs() const;

 private:
  std::size_t idx2(std::int64_t r, std::int64_t c) const {
    return static_cast<std::size_t>(r * shape_[1] + c);
  }
  std::size_t idx4(std::int64_t n, std::int64_t c, std::int64_t h,
                   std::int64_t w) const {
    return static_cast<std::size_t>(
        ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w);
  }

  std::vector<std::int64_t> shape_;
  std::vector<float> data_;
};

}  // namespace dnnspmv
