// Multi-tower networks for the paper's structure study (§5, Figures 6/7/10).
//
// MergeNet holds one convolutional tower per input source plus one or more
// fully connected heads. The towers' flattened outputs are concatenated and
// fed to one head per forward pass:
//
//   * late-merging  — one tower per source (paper Figure 7/10);
//   * early-merging — callers stack the sources as channels of a single
//     input and use one tower (paper Figure 6).
//
// freeze_towers() implements the "top evolvement" transfer-learning mode:
// the tower parameters are pinned and only one head retrains on the target
// labels (§6.2). The concatenated tower output is exactly what the paper
// calls the "CNN codes" of a matrix; because the codes carry over to a new
// label distribution, extra heads over the same towers answer other label
// sets (FormatSelector's SpMM head) without a second set of towers.
//
// Scratch: every pass takes the caller's Workspace; the net owns none.
//
// Thread safety: the forward passes, backward() and codes() share mutable
// per-forward state (tower_out_, merged_, head_out_ and the Sequential
// activation caches), so a MergeNet instance is NOT re-entrant — concurrent
// callers must serialize. FormatSelector holds the inference mutex that
// makes its predict paths safe (selector.hpp); anything driving a MergeNet
// directly owes the same care.
#pragma once

#include <memory>

#include "nn/sequential.hpp"

namespace dnnspmv {

class MergeNet {
 public:
  /// A net starts with no towers and one empty head (head 0).
  MergeNet();

  /// Adds a tower; towers are indexed by the order of addition and consume
  /// the matching entry of the forward() input vector.
  Sequential& add_tower();

  /// Adds a head over the same concatenated tower outputs; heads are
  /// indexed by the order of addition, after head 0.
  Sequential& add_head();

  /// A fully connected head applied to the concatenated tower outputs.
  Sequential& head(std::size_t i = 0) { return *heads_.at(i); }

  std::size_t num_towers() const { return towers_.size(); }
  std::size_t num_heads() const { return heads_.size(); }
  Sequential& tower(std::size_t i) { return *towers_.at(i); }

  /// Forward pass over a batch through head `head`; inputs[i] feeds tower
  /// i. All inputs must share the same batch dimension. Returns logits
  /// [batch, classes]. `ws` is the caller's scratch (the trainer keeps one
  /// per run, the selector one beside its inference lock).
  void forward(const std::vector<Tensor>& inputs, Tensor& logits,
               bool training, Workspace& ws, std::size_t head = 0);

  /// Forward through head `head` from precomputed codes: rows `rows` of
  /// `codes` [samples, features], as codes() returns them, make the batch.
  /// Gives the same logits as forward() on those samples' inputs, without
  /// running the towers; backward() then needs frozen towers.
  void forward_codes(const Tensor& codes,
                     const std::vector<std::int32_t>& rows, Tensor& logits,
                     bool training, Workspace& ws, std::size_t head = 0);

  /// Backward from logits gradient through the head the last forward ran;
  /// parameter gradients accumulate. When every tower parameter is frozen,
  /// only the head runs backward and the towers' gradients stay untouched.
  /// No layer builds a gradient for the network's inputs.
  void backward(const std::vector<Tensor>& inputs, const Tensor& grad_logits,
                Workspace& ws);

  /// Towers in order, then heads in order.
  std::vector<Param*> params();
  std::vector<Param*> head_params(std::size_t i = 0) {
    return head(i).params();
  }

  /// Pins the towers and every head but `train_head`, which stays
  /// trainable (top evolvement).
  void freeze_towers(std::size_t train_head = 0);
  void unfreeze_all();
  /// True when every tower parameter is frozen.
  bool towers_frozen();

  /// The concatenated flattened tower outputs for a batch ("CNN codes").
  /// `training` runs the towers' training forward, the one forward() runs
  /// in training.
  void codes(const std::vector<Tensor>& inputs, Tensor& out, Workspace& ws,
             bool training = false);

 private:
  std::vector<std::unique_ptr<Sequential>> towers_;
  std::vector<std::unique_ptr<Sequential>> heads_;
  // Cached per-forward state for backward.
  std::vector<Tensor> tower_out_;
  Tensor merged_;
  Tensor head_out_;
  std::size_t head_run_ = 0;  // head of the last forward
};

/// Concatenates the flattened tower outputs per sample into `merged`
/// [batch, Σ features]: the "CNN codes" every head reads, fp32 or int8.
void concat_tower_outputs(const std::vector<Tensor>& tower_out,
                          Tensor& merged);

}  // namespace dnnspmv
