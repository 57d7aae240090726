// Sequential container: a linear stack of layers with cached activations so
// backward can replay the forward pass. One Workspace (the layer's own
// fallback, or whatever the caller threads in) is shared by every layer in
// the stack, so a whole forward/backward pass reuses one set of scratch
// buffers, the gradients passed between layers included.
#pragma once

#include <memory>

#include "nn/layer.hpp"

namespace dnnspmv {

class Sequential final : public Layer {
 public:
  Sequential() = default;

  Sequential& add(std::unique_ptr<Layer> layer) {
    layers_.push_back(std::move(layer));
    return *this;
  }

  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    layers_.push_back(std::make_unique<L>(std::forward<Args>(args)...));
    return *this;
  }

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }

  void forward(const Tensor& in, Tensor& out, bool training,
               Workspace& ws) override;
  void backward(const Tensor& in, const Tensor& out, const Tensor& grad_out,
                Tensor& grad_in, Workspace& ws) override;
  /// The first layer builds no input gradient.
  void backward_params(const Tensor& in, const Tensor& out,
                       const Tensor& grad_out, Workspace& ws) override;
  std::vector<Param*> params() override;
  std::string name() const override { return "sequential"; }
  std::vector<std::int64_t> output_shape(
      const std::vector<std::int64_t>& in) const override;

  /// Sets the frozen flag on every parameter in this stack.
  void set_frozen(bool frozen);

 private:
  // Builds the cached per-layer span names ("nn.<layer>.fwd"/".bwd") the
  // first traced pass needs; called only when obs tracing is enabled so
  // untraced passes never pay the string work.
  void ensure_span_names();

  // Backward from the last layer to the first, into *grad_in when given.
  void backward_through(const Tensor& in, const Tensor& grad_out,
                        Tensor* grad_in, Workspace& ws);

  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Tensor> acts_;  // activations: acts_[i] = output of layer i
  std::vector<std::string> span_fwd_, span_bwd_;  // cached obs span names
};

}  // namespace dnnspmv
