// FormatSelector — the library's public façade.
//
// Wraps the full pipeline of paper Figure 3: given matrices labelled on a
// platform (collect_labels), it normalizes them (RepMode), builds the
// late-merging CNN, trains it, and then predicts the best SpMV format for
// unseen matrices. One net answers both ops: its conv towers are shared,
// and an optional SpMM head sits beside the SpMV head (fit_spmm). Models
// persist to a single file and can be migrated to another platform with
// migrate() (paper §6).
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "core/rep_stream.hpp"
#include "core/represent.hpp"
#include "core/transfer.hpp"
#include "ml/features.hpp"
#include "nn/quant.hpp"
#include "perf/labels.hpp"

namespace dnnspmv {

struct SelectorOptions {
  RepMode mode = RepMode::kHistogram;
  std::int64_t rep_rows = 32;  // rows of the representation
  std::int64_t rep_bins = 16;  // histogram bins (ignored for binary/density)
  // Sampling budget for the streaming representation builder: matrices
  // with more nonzeros than this are represented from a deterministic
  // strided sample instead of a full pass (<= 0 always exact). Applied
  // identically at train and serve time, so representations stay
  // bit-identical across the two.
  std::int64_t rep_sample_nnz = kDefaultRepSampleNnz;
  bool late_merge = true;
  // Post-training int8 quantization of the inference path (DESIGN.md §13):
  // fit() calibrates on the training slice and predictions run the int8
  // kernels; migrate() re-calibrates on the target dataset, so online
  // publishes stay quantized. Rides save/load and clone(), and is
  // validated by ModelRegistry::publish like the rep geometry.
  bool quantize = false;
  // K (dense columns) the SpMM head's labels were measured at. Purely
  // descriptive for inference — representations are op-independent — but
  // published models must agree on it (ModelRegistry validates), since a
  // head trained at K=8 answers a K=128 workload with stale crossovers.
  index_t spmm_cols = 32;
  TrainConfig train;
};

/// Builds the CNN-ready dataset from labelled matrices: step 2 of Figure 3.
/// Representations come from the same streaming sampled builder the serve
/// path uses (same rep_sample_nnz => same tensors, bitwise). Each sample
/// also carries its DT feature vector for the decision-tree baselines;
/// FormatSelector::fit and fit_spmm on labelled matrices build the same
/// dataset without it.
Dataset build_dataset(const std::vector<LabeledMatrix>& labeled,
                      const std::vector<Format>& candidates, RepMode mode,
                      std::int64_t rep_rows, std::int64_t rep_bins,
                      std::int64_t rep_sample_nnz = kDefaultRepSampleNnz);

class FormatSelector {
 public:
  explicit FormatSelector(SelectorOptions opts = {});

  /// Full pipeline: normalize + build CNN + train. Builds a fresh net, so
  /// any SpMM head is dropped.
  void fit(const std::vector<LabeledMatrix>& labeled,
           std::vector<Format> candidates);

  /// Trains on a pre-built dataset (its candidates become this selector's).
  void fit(const Dataset& train);

  /// Trains the optional SpMM head on SpMM-measured labels (same candidate
  /// set and representation geometry; only the label distribution differs).
  /// By top evolvement (paper §6, migrate_model): the head starts from fresh
  /// weights and trains over the frozen towers for twice fit()'s epochs, so
  /// the towers, the SpMV head and every SpMV pick stay as they were; a
  /// second call fine-tunes the existing SpMM head. On a quantized selector
  /// only the SpMM head is calibrated, on the SpMM training slice. Requires
  /// fit() first, and a later fit() drops the head again; clone, save/load,
  /// quantize and top-evolvement migrate keep it. After this,
  /// predict*(a, SpOp::kSpmm) routes through the new head.
  void fit_spmm(const std::vector<LabeledMatrix>& labeled);
  void fit_spmm(const Dataset& train);

  /// Whether predict*() can answer for `op`: kSpmv after fit(), kSpmm after
  /// fit_spmm().
  bool supports(SpOp op) const;

  /// Predicted best format for a new matrix.
  ///
  /// Thread safety: predict, predict_index, predict_index_batch and
  /// predict_prepared may be called concurrently from any number of threads
  /// on a trained selector. MergeNet keeps mutable per-forward scratch
  /// (activations for backward), so inference is internally serialized on
  /// a per-selector mutex; representation-building (prepare_inputs) runs
  /// outside the lock and scales with the callers. Concurrent prediction
  /// must not overlap with fit()/fit_spmm()/migrate() on the same object.
  Format predict(const Csr& a, SpOp op = SpOp::kSpmv) const;

  /// Index into candidates() instead of the Format enum.
  std::int32_t predict_index(const Csr& a, SpOp op = SpOp::kSpmv) const;

  /// Batched predict: one forward pass over all matrices through the same
  /// batched-tensor path the trainer uses. Element i equals
  /// predict_index(*as[i]) exactly (per-sample arithmetic is batch-size
  /// invariant).
  std::vector<std::int32_t> predict_index_batch(
      const std::vector<const Csr*>& as, SpOp op = SpOp::kSpmv) const;

  /// CNN-ready representations of one matrix — the per-request work a
  /// serving layer runs in its client threads. Pure function of the matrix
  /// and options; safe concurrently without the inference lock.
  std::vector<Tensor> prepare_inputs(const Csr& a) const;

  /// Argmax candidate indices for pre-built representations, one batched
  /// forward pass. The micro-batching backend of serve::SelectionService.
  /// `ws` optionally supplies the forward-pass scratch workspace (serve
  /// workers keep one per thread so miss-path inference reuses warm
  /// buffers); null uses the selector's own, which the inference lock
  /// guards like the net.
  std::vector<std::int32_t> predict_prepared(
      const std::vector<std::vector<Tensor>>& prepared, Workspace* ws = nullptr,
      SpOp op = SpOp::kSpmv) const;

  const std::vector<Format>& candidates() const { return candidates_; }

  /// The streaming representation builder prepare_inputs runs — exposed so
  /// serving layers can drive the allocation-free build_into() path with
  /// their own arenas and pooled output buffers.
  const StreamingRepBuilder& rep_builder() const { return rep_builder_; }

  /// Index of `f` in candidates(), or -1 when `f` is not a candidate.
  /// Lets alternate answer paths (the serve layer's FallbackSelector, cost
  /// models) map a Format into this selector's class-index space.
  std::int32_t candidate_index(Format f) const;
  const SelectorOptions& options() const { return opts_; }
  bool trained() const { return net_ != nullptr; }
  MergeNet& net();

  /// Calibrates on `calib` (observer pass over its samples) and converts
  /// the whole net, towers and every head, to int8 inference. Subsequent
  /// predictions run the quantized kernels; the fp32 weights stay
  /// untouched (training/migration still works). Called automatically by
  /// fit()/migrate() when SelectorOptions::quantize is set; public so an
  /// already-trained selector can be quantized after the fact.
  void quantize(const Dataset& calib);
  bool quantized() const { return qws_ != nullptr; }

  /// The quantized weight set, or null when not quantized. Exposed for
  /// serialization tests; treat as read-only.
  const QuantizedWeightSet* quantized_weights() const { return qws_.get(); }

  /// Version of this weight set in its ModelRegistry's numbering: 0 for a
  /// model that was never published (offline training, ad-hoc clones);
  /// >= 1 once stamped by ModelRegistry::publish. Rides clone(), save()
  /// and load(), so a serialized weight set keeps its provenance.
  std::uint64_t model_version() const { return model_version_; }

  /// Identity of the weights this selector predicts with: unique within
  /// the process and renewed by every call that sets them (fit, fit_spmm,
  /// quantize, load, clone, migrate), 0 before the first. Prediction caches
  /// key by it, so a selector refitted or reassigned in place never answers
  /// from the old weights' entries. Writes through net() do not renew it.
  std::uint64_t weights_id() const { return weights_id_; }

  /// Deep copy of a trained selector: a fresh MergeNet with identical
  /// architecture and weights and its own inference mutex. Because forward
  /// passes are serialized per selector, N clones give N independent
  /// inference lanes — the per-replica model copies of serve's
  /// ReplicaRouter. O(#params); no retraining.
  FormatSelector clone() const;

  /// Migrates this selector's model to a new platform's SpMV labels. Top
  /// evolvement carries the SpMM head unchanged, because the towers it
  /// reads stay frozen; the other methods retrain the towers and throw
  /// errc::invalid_argument on a selector with an SpMM head.
  FormatSelector migrate(MigrationMethod method, const Dataset& target_train,
                         const TrainConfig& cfg) const;

  /// One file format. load() rejects any other file, including earlier
  /// layouts, with errc::data_error.
  void save(const std::string& path) const;
  static FormatSelector load(const std::string& path);

 private:
  CnnSpec make_spec() const;
  std::vector<std::vector<Tensor>> calib_batches(const Dataset& calib) const;

  friend class ModelRegistry;  // stamps model_version_ at publish time

  SelectorOptions opts_;
  StreamingRepBuilder rep_builder_;  // derived from opts_; keep adjacent
  std::vector<Format> candidates_;
  std::uint64_t model_version_ = 0;
  std::uint64_t weights_id_ = 0;
  // Shared towers plus one head per supported op, indexed by SpOp.
  std::unique_ptr<MergeNet> net_;  // unique_ptr: MergeNet is move-averse
  // Int8 inference state: the serializable weight set and the compiled
  // executor over net_, covering every head. Both null on fp32 selectors;
  // rebuilt (never shared) on clone so every inference lane owns its
  // scratch.
  std::unique_ptr<QuantizedWeightSet> qws_;
  std::unique_ptr<QuantizedMergeNet> qnet_;
  // Serializes forward passes (MergeNet scratch is not re-entrant); in a
  // unique_ptr so the selector stays movable.
  std::unique_ptr<std::mutex> infer_mu_ = std::make_unique<std::mutex>();
  // Forward scratch for callers that pass predict_prepared no workspace;
  // guarded by infer_mu_.
  std::unique_ptr<Workspace> infer_ws_ = std::make_unique<Workspace>();
};

}  // namespace dnnspmv
