#include "core/selector.hpp"

#include <atomic>
#include <fstream>

#include "common/error.hpp"
#include "core/trainer.hpp"
#include "nn/loss.hpp"
#include "nn/serialize.hpp"

namespace dnnspmv {
namespace {

// The net's head for `op`: SpMV is head 0 (fit), SpMM head 1 (fit_spmm).
std::size_t head_of(SpOp op) { return static_cast<std::size_t>(op); }

// Weight files start with this magic, the layout version and the registry
// version the weights were published as. Only the current layout loads.
constexpr std::uint32_t kWeightFileMagic = 0x57534D56;  // "VMSW"
constexpr std::uint32_t kWeightFileVersion = 4;

// fit_spmm trains a fresh head alone over frozen towers. In the epochs the
// towers trained for it underfits; in twice as many it matches or beats a
// standalone net on held-out SpMM picks (DESIGN.md §14). Head-only epochs
// skip the towers' backward pass, so the two cost less than one epoch of
// full training.
constexpr int kSpmmHeadEpochScale = 2;

// A weights_id() no selector has had yet.
std::uint64_t next_weights_id() {
  static std::atomic<std::uint64_t> last{0};
  return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

// The CNN's training set: representations, times and labels. Training,
// calibration and fit_spmm read nothing else, so the DT features are left
// out.
Dataset cnn_dataset(const std::vector<LabeledMatrix>& labeled,
                    const std::vector<Format>& candidates, RepMode mode,
                    std::int64_t rep_rows, std::int64_t rep_bins,
                    std::int64_t rep_sample_nnz) {
  const StreamingRepBuilder builder(
      {mode, rep_rows, rep_bins, rep_sample_nnz, /*use_simd=*/true});
  Dataset ds;
  ds.candidates = candidates;
  ds.samples.reserve(labeled.size());
  for (const LabeledMatrix& lm : labeled) {
    Sample s;
    s.inputs = builder.build(*lm.matrix);
    s.format_times = lm.format_times;
    s.label = lm.label;
    s.gen_class = static_cast<std::int32_t>(lm.gen_class);
    ds.samples.push_back(std::move(s));
  }
  return ds;
}

}  // namespace

Dataset build_dataset(const std::vector<LabeledMatrix>& labeled,
                      const std::vector<Format>& candidates, RepMode mode,
                      std::int64_t rep_rows, std::int64_t rep_bins,
                      std::int64_t rep_sample_nnz) {
  Dataset ds = cnn_dataset(labeled, candidates, mode, rep_rows, rep_bins,
                           rep_sample_nnz);
  for (std::size_t i = 0; i < labeled.size(); ++i)
    ds.samples[i].features = extract_features(*labeled[i].matrix);
  return ds;
}

FormatSelector::FormatSelector(SelectorOptions opts)
    : opts_(std::move(opts)),
      rep_builder_({opts_.mode, opts_.rep_rows, opts_.rep_bins,
                    opts_.rep_sample_nnz, /*use_simd=*/true}) {}

CnnSpec FormatSelector::make_spec() const {
  CnnSpec spec;
  const int nsources = rep_num_sources(opts_.mode);
  for (int s = 0; s < nsources; ++s) {
    if (opts_.mode == RepMode::kHistogram)
      spec.input_hw.push_back({opts_.rep_rows, opts_.rep_bins});
    else
      spec.input_hw.push_back({opts_.rep_rows, opts_.rep_rows});
  }
  spec.num_classes = static_cast<int>(candidates_.size());
  spec.late_merge = opts_.late_merge;
  spec.seed = opts_.train.seed;
  return spec;
}

void FormatSelector::fit(const std::vector<LabeledMatrix>& labeled,
                         std::vector<Format> candidates) {
  fit(cnn_dataset(labeled, candidates, opts_.mode, opts_.rep_rows,
                  opts_.rep_bins, opts_.rep_sample_nnz));
}

void FormatSelector::fit(const Dataset& train) {
  DNNSPMV_CHECK(!train.samples.empty());
  candidates_ = train.candidates;
  const CnnSpec spec = make_spec();
  qnet_.reset();  // compiled over the net being replaced
  qws_.reset();
  net_ = std::make_unique<MergeNet>(build_cnn(spec));
  train_cnn(*net_, train, num_net_inputs(spec), opts_.train);
  weights_id_ = next_weights_id();
  if (opts_.quantize) quantize(train);
}

void FormatSelector::fit_spmm(const std::vector<LabeledMatrix>& labeled) {
  DNNSPMV_CHECK_MSG(net_, "fit_spmm before fit: the SpMV head defines the "
                          "candidate set and representation geometry");
  fit_spmm(cnn_dataset(labeled, candidates_, opts_.mode, opts_.rep_rows,
                       opts_.rep_bins, opts_.rep_sample_nnz));
}

void FormatSelector::fit_spmm(const Dataset& train) {
  DNNSPMV_CHECK_MSG(net_, "fit_spmm before fit: the SpMV head defines the "
                          "candidate set and representation geometry");
  DNNSPMV_CHECK(!train.samples.empty());
  DNNSPMV_CHECK_MSG(train.candidates == candidates_,
                    "SpMM labels must use the SpMV head's candidate formats");
  const std::size_t spmm = head_of(SpOp::kSpmm);
  // Top evolvement (paper §6): the SpMM head trains over the frozen towers,
  // which leaves the towers, the SpMV head and its picks as they were.
  TrainConfig cfg = opts_.train;
  cfg.epochs *= kSpmmHeadEpochScale;
  MergeNet net = migrate_model(make_spec(), *net_, MigrationMethod::kTopEvolve,
                               train, cfg, spmm);
  qnet_.reset();  // compiled over the net being replaced
  net_ = std::make_unique<MergeNet>(std::move(net));
  weights_id_ = next_weights_id();
  if (qws_) {
    // Only the new head's layers join the weight set, calibrated on its
    // own training slice; the towers and the SpMV head keep their scales.
    std::erase_if(qws_->layers, [&](const QLayer& l) {
      return l.seq == head_seq(spmm);
    });
    const QuantizedWeightSet head =
        quantize_merge_net(*net_, calib_batches(train), spmm);
    qws_->layers.insert(qws_->layers.end(), head.layers.begin(),
                        head.layers.end());
    qnet_ = std::make_unique<QuantizedMergeNet>(*net_, *qws_);
  }
}

bool FormatSelector::supports(SpOp op) const {
  return net_ != nullptr && head_of(op) < net_->num_heads();
}

std::vector<std::vector<Tensor>> FormatSelector::calib_batches(
    const Dataset& calib) const {
  // Calibration budget: the first 256 samples bound every layer's range.
  constexpr std::int64_t kCalibSamples = 256;
  const int ninputs = num_net_inputs(make_spec());
  const std::int64_t cap = std::min<std::int64_t>(
      kCalibSamples, static_cast<std::int64_t>(calib.samples.size()));
  const std::int64_t bs = std::max(1, opts_.train.batch);
  std::vector<std::vector<Tensor>> batches;
  for (std::int64_t i = 0; i < cap; i += bs) {
    std::vector<std::int32_t> idx;
    for (std::int64_t j = i; j < std::min(cap, i + bs); ++j)
      idx.push_back(static_cast<std::int32_t>(j));
    batches.push_back(assemble_batch(calib, idx, ninputs));
  }
  return batches;
}

void FormatSelector::quantize(const Dataset& calib) {
  DNNSPMV_CHECK_MSG(net_, "quantize an untrained FormatSelector");
  DNNSPMV_CHECK_MSG(!calib.samples.empty(),
                    "quantize needs a calibration dataset");
  const std::vector<std::vector<Tensor>> batches = calib_batches(calib);
  // The calibration walk runs forwards through the shared net scratch, so
  // it takes the same lock predictions do. Representations are
  // op-independent, so the same batches exercise every head's ranges.
  std::lock_guard<std::mutex> lock(*infer_mu_);
  qws_ = std::make_unique<QuantizedWeightSet>(
      quantize_merge_net(*net_, batches));
  qnet_ = std::make_unique<QuantizedMergeNet>(*net_, *qws_);
  opts_.quantize = true;
  weights_id_ = next_weights_id();
}

std::vector<Tensor> FormatSelector::prepare_inputs(const Csr& a) const {
  DNNSPMV_CHECK_MSG(net_, "predict on an untrained FormatSelector");
  return rep_builder_.build(a);
}

std::vector<std::int32_t> FormatSelector::predict_prepared(
    const std::vector<std::vector<Tensor>>& prepared, Workspace* ws,
    SpOp op) const {
  DNNSPMV_CHECK_MSG(net_, "predict on an untrained FormatSelector");
  DNNSPMV_CHECK_MSG(supports(op),
                    "predict(kSpmm) on a selector without an SpMM head "
                    "(fit_spmm was never called)");
  if (prepared.empty()) return {};
  std::vector<const std::vector<Tensor>*> samples;
  samples.reserve(prepared.size());
  for (const std::vector<Tensor>& inputs : prepared) samples.push_back(&inputs);
  const std::vector<Tensor> inputs =
      assemble_batch(samples, num_net_inputs(make_spec()));
  // One forward over the whole batch; the lock covers only inference, not
  // the representation work above. The int8 executor needs it too: it
  // shares the net's fp32 pool layers (mutable argmax scratch).
  Tensor logits;
  std::lock_guard<std::mutex> lock(*infer_mu_);
  Workspace& scratch = ws ? *ws : *infer_ws_;
  if (qnet_)
    qnet_->forward(inputs, logits, scratch, head_of(op));
  else
    net_->forward(inputs, logits, /*training=*/false, scratch, head_of(op));
  return argmax_rows(logits);
}

std::int32_t FormatSelector::predict_index(const Csr& a, SpOp op) const {
  return predict_prepared({prepare_inputs(a)}, nullptr, op)[0];
}

std::vector<std::int32_t> FormatSelector::predict_index_batch(
    const std::vector<const Csr*>& as, SpOp op) const {
  std::vector<std::vector<Tensor>> prepared;
  prepared.reserve(as.size());
  for (const Csr* a : as) {
    DNNSPMV_CHECK(a != nullptr);
    prepared.push_back(prepare_inputs(*a));
  }
  return predict_prepared(prepared, nullptr, op);
}

Format FormatSelector::predict(const Csr& a, SpOp op) const {
  return candidates_[static_cast<std::size_t>(predict_index(a, op))];
}

std::int32_t FormatSelector::candidate_index(Format f) const {
  for (std::size_t i = 0; i < candidates_.size(); ++i)
    if (candidates_[i] == f) return static_cast<std::int32_t>(i);
  return -1;
}

MergeNet& FormatSelector::net() {
  DNNSPMV_CHECK(net_);
  return *net_;
}

FormatSelector FormatSelector::clone() const {
  DNNSPMV_CHECK_MSG(net_, "clone of an untrained FormatSelector");
  FormatSelector out(opts_);
  out.candidates_ = candidates_;
  // Clones carry the weight set's registry version: a ModelSubscription's
  // private copy must answer model_version() with the published number.
  out.model_version_ = model_version_;
  out.weights_id_ = next_weights_id();
  out.net_ = std::make_unique<MergeNet>(
      build_cnn(out.make_spec(), net_->num_heads()));
  copy_params(net_->params(), out.net_->params());
  if (qws_) {
    // The weight set is pure data; the executor is rebuilt over the
    // clone's net so each lane has private int8 scratch.
    out.qws_ = std::make_unique<QuantizedWeightSet>(*qws_);
    out.qnet_ = std::make_unique<QuantizedMergeNet>(*out.net_, *out.qws_);
  }
  return out;
}

FormatSelector FormatSelector::migrate(MigrationMethod method,
                                       const Dataset& target_train,
                                       const TrainConfig& cfg) const {
  DNNSPMV_CHECK_MSG(net_, "migrate from an untrained FormatSelector");
  DNNSPMV_CHECK_MSG(target_train.candidates == candidates_,
                    "target platform must use the same candidate formats");
  FormatSelector out(opts_);
  out.opts_.train = cfg;
  out.candidates_ = candidates_;
  // target_train holds SpMV labels, so only the SpMV head retrains; an SpMM
  // head rides along unchanged over the frozen towers, and migrate_model
  // refuses the methods that would retrain them under it.
  out.net_ = std::make_unique<MergeNet>(
      migrate_model(make_spec(), *net_, method, target_train, cfg));
  out.weights_id_ = next_weights_id();
  // Re-quantize on the migration target: the fine-tuned weights get fresh
  // scales and the calibration distribution matches the data the migrated
  // model will serve. This is what keeps online publishes quantized —
  // OnlineTrainer migrates onto its replay dataset before every publish.
  if (out.opts_.quantize) out.quantize(target_train);
  return out;
}

void FormatSelector::save(const std::string& path) const {
  DNNSPMV_CHECK_MSG(net_, "save of an untrained FormatSelector");
  std::ofstream os(path, std::ios::binary);
  DNNSPMV_CHECK_MSG(os.is_open(), "cannot open " << path << " for write");
  // Header, options, candidates, the fp32 params of the towers and every
  // head, then the int8 weight set when quantized.
  write_pod(os, kWeightFileMagic);
  write_pod(os, kWeightFileVersion);
  write_pod(os, model_version_);
  write_pod(os, static_cast<std::int32_t>(opts_.mode));
  write_pod(os, opts_.rep_rows);
  write_pod(os, opts_.rep_bins);
  write_pod(os, opts_.rep_sample_nnz);
  write_pod(os, static_cast<std::int32_t>(opts_.late_merge ? 1 : 0));
  write_pod(os, static_cast<std::int32_t>(qws_ ? 1 : 0));
  write_pod(os, static_cast<std::int32_t>(net_->num_heads()));
  write_pod(os, opts_.spmm_cols);
  write_pod(os, static_cast<std::int32_t>(candidates_.size()));
  for (Format f : candidates_) write_pod(os, static_cast<std::int32_t>(f));
  save_params(os, net_->params());
  if (qws_) qws_->save(os);
}

FormatSelector FormatSelector::load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  DNNSPMV_CHECK_MSG(is.is_open(), "cannot open " << path);
  std::uint32_t magic = 0, version = 0;
  read_pod(is, magic);
  read_pod(is, version);
  DNNSPMV_CHECK_ERRC(magic == kWeightFileMagic, errc::data_error,
                     path << " is not a selector weight file");
  DNNSPMV_CHECK_ERRC(version == kWeightFileVersion, errc::data_error,
                     path << " has weight-file format " << version
                          << "; only format " << kWeightFileVersion
                          << " loads");
  SelectorOptions opts;
  std::uint64_t model_version = 0;
  std::int32_t mode = 0, late = 0, quant = 0, heads = 0, ncand = 0;
  read_pod(is, model_version);
  read_pod(is, mode);
  read_pod(is, opts.rep_rows);
  read_pod(is, opts.rep_bins);
  read_pod(is, opts.rep_sample_nnz);
  read_pod(is, late);
  read_pod(is, quant);
  read_pod(is, heads);
  read_pod(is, opts.spmm_cols);
  read_pod(is, ncand);
  DNNSPMV_CHECK_MSG(heads >= 1 && heads <= kNumOps && ncand >= 2 &&
                        ncand <= kNumFormats && mode >= 0 &&
                        mode <= static_cast<std::int32_t>(RepMode::kHistogram),
                    "corrupt selector file");
  opts.mode = static_cast<RepMode>(mode);
  opts.late_merge = late != 0;
  opts.quantize = quant != 0;
  FormatSelector sel(opts);
  for (std::int32_t i = 0; i < ncand; ++i) {
    std::int32_t fi = 0;
    read_pod(is, fi);
    DNNSPMV_CHECK_MSG(fi >= 0 && fi < kNumFormats,
                      path << " names format id " << fi);
    sel.candidates_.push_back(static_cast<Format>(fi));
  }
  sel.model_version_ = model_version;
  sel.weights_id_ = next_weights_id();
  sel.net_ = std::make_unique<MergeNet>(
      build_cnn(sel.make_spec(), static_cast<std::size_t>(heads)));
  load_params(is, sel.net_->params());
  if (quant != 0) {
    // The executor constructor validates the weight set against the
    // freshly built net (layer kinds + shapes) and throws errc::data_error
    // when the file does not match this architecture.
    sel.qws_ = std::make_unique<QuantizedWeightSet>(
        QuantizedWeightSet::load(is));
    sel.qnet_ = std::make_unique<QuantizedMergeNet>(*sel.net_, *sel.qws_);
  }
  return sel;
}

}  // namespace dnnspmv
