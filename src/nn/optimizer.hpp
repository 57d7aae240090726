// Adam, the one optimizer the trainer runs. Frozen parameters are skipped,
// which is how "top evolvement" transfer learning restricts training to
// the head.
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace dnnspmv {

class Adam {
 public:
  Adam(std::vector<Param*> params, double lr, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8);

  /// Applies one update from the accumulated gradients, then zeroes them.
  void step();

  void set_lr(double lr) { lr_ = lr; }
  double lr() const { return lr_; }

 private:
  std::vector<Param*> params_;
  double lr_;
  double beta1_, beta2_, eps_;
  std::int64_t t_ = 0;
  std::vector<Tensor> m_, v_;
};

}  // namespace dnnspmv
