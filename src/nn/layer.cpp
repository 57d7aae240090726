#include "nn/layer.hpp"

namespace dnnspmv {

void Layer::backward_params(const Tensor& in, const Tensor& out,
                            const Tensor& grad_out, Workspace& ws) {
  Tensor discarded;
  backward(in, out, grad_out, discarded, ws);
}

void zero_grads(const std::vector<Param*>& ps) {
  for (Param* p : ps) p->grad.zero();
}

std::int64_t param_count(const std::vector<Param*>& ps) {
  std::int64_t n = 0;
  for (const Param* p : ps) n += p->value.size();
  return n;
}

}  // namespace dnnspmv
