// Layer abstraction for the CNN stack.
//
// Layers are stateless with respect to activations: forward takes the input
// batch and produces the output batch; backward re-receives both plus the
// output gradient and produces the input gradient. Parameterized layers
// expose their weights through Param so optimizers and serializers can walk
// a network generically. A Param can be frozen, which is the mechanism the
// "top evolvement" transfer-learning mode uses to pin the convolutional
// towers while retraining the head (paper §6.2).
//
// Scratch memory (conv's im2col matrices, GEMM staging) comes from a
// Workspace the caller threads through forward/backward, so repeated passes
// reuse the same buffers instead of allocating. Containers (Sequential,
// MergeNet) pass one workspace down their whole stack; layers own none.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/workspace.hpp"
#include "tensor/tensor.hpp"

namespace dnnspmv {

struct Param {
  std::string name;
  Tensor value;
  Tensor grad;
  bool frozen = false;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes out from in. `training` toggles train-only behaviour
  /// (dropout); `ws` supplies scratch buffers reused across calls.
  virtual void forward(const Tensor& in, Tensor& out, bool training,
                       Workspace& ws) = 0;

  /// Computes grad_in from grad_out and accumulates parameter gradients.
  /// `in` and `out` are the tensors seen by the matching forward call.
  virtual void backward(const Tensor& in, const Tensor& out,
                        const Tensor& grad_out, Tensor& grad_in,
                        Workspace& ws) = 0;

  /// backward() for a caller that discards grad_in: accumulates the
  /// parameter gradients only. Layers that can skip building the input
  /// gradient override it; the default runs backward() and drops grad_in.
  virtual void backward_params(const Tensor& in, const Tensor& out,
                               const Tensor& grad_out, Workspace& ws);

  virtual std::vector<Param*> params() { return {}; }

  virtual std::string name() const = 0;

  /// Shape of the output batch given the input batch shape.
  virtual std::vector<std::int64_t> output_shape(
      const std::vector<std::int64_t>& in) const = 0;
};

/// Zeroes the gradients of every parameter in `ps`.
void zero_grads(const std::vector<Param*>& ps);

/// Total element count across parameter values.
std::int64_t param_count(const std::vector<Param*>& ps);

}  // namespace dnnspmv
