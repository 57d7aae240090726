#include "core/model_registry.hpp"

#include <utility>

#include "common/error.hpp"

namespace dnnspmv {
namespace {

/// The interface a serving layer caches across swaps: candidate list and
/// representation geometry. Weights may change per version; these may not.
void check_compatible(const FormatSelector& boot, const FormatSelector& next) {
  DNNSPMV_CHECK_ERRC(next.trained(), errc::not_trained,
                     "ModelRegistry::publish needs a trained model");
  DNNSPMV_CHECK_ERRC(next.candidates() == boot.candidates(),
                     errc::invalid_argument,
                     "published model changes the candidate format list; "
                     "incompatible versions need a new registry");
  const SelectorOptions& a = boot.options();
  const SelectorOptions& b = next.options();
  DNNSPMV_CHECK_ERRC(a.mode == b.mode && a.rep_rows == b.rep_rows &&
                         a.rep_bins == b.rep_bins &&
                         a.rep_sample_nnz == b.rep_sample_nnz &&
                         a.late_merge == b.late_merge,
                     errc::invalid_argument,
                     "published model changes the representation geometry; "
                     "incompatible versions need a new registry");
  // Quantization is part of the serving contract too: a fleet serving int8
  // latencies must not silently adopt an fp32 model (or vice versa) — the
  // cold-miss budget and the numerics both change.
  DNNSPMV_CHECK_ERRC(boot.quantized() == next.quantized(),
                     errc::invalid_argument,
                     "published model changes quantization; "
                     "incompatible versions need a new registry");
  // Op support is part of the contract: a deployment answering SpMM must
  // not swap in an SpMV-only model mid-flight (in-queue kSpmm requests
  // would hit the no-head check). migrate() carries the SpMM head by
  // weight copy, so online publishes keep satisfying this.
  DNNSPMV_CHECK_ERRC(boot.supports(SpOp::kSpmm) == next.supports(SpOp::kSpmm),
                     errc::invalid_argument,
                     "published model changes SpMM support; "
                     "incompatible versions need a new registry");
  DNNSPMV_CHECK_ERRC(!boot.supports(SpOp::kSpmm) ||
                         a.spmm_cols == b.spmm_cols,
                     errc::invalid_argument,
                     "published model changes the SpMM label K; "
                     "incompatible versions need a new registry");
}

}  // namespace

ModelRegistry::ModelRegistry(FormatSelector initial)
    : candidates_(initial.candidates()),
      options_(initial.options()),
      prefix_(obs::next_prefix("registry")),
      version_gauge_(
          obs::MetricsRegistry::global().gauge(prefix_ + "model_version")),
      published_(
          obs::MetricsRegistry::global().counter(prefix_ + "published")) {
  DNNSPMV_CHECK_ERRC(initial.trained(), errc::not_trained,
                     "ModelRegistry needs a trained boot model");
  initial.model_version_ = 1;
  current_ = std::make_shared<const FormatSelector>(std::move(initial));
  version_.store(1, std::memory_order_release);
  version_gauge_.set(1.0);
}

std::shared_ptr<const FormatSelector> ModelRegistry::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

std::uint64_t ModelRegistry::publish(FormatSelector next) {
  std::lock_guard<std::mutex> lock(mu_);
  check_compatible(*current_, next);
  const std::uint64_t v = version_.load(std::memory_order_relaxed) + 1;
  next.model_version_ = v;
  // Old versions stay alive through the shared_ptrs subscribers still
  // hold — swapping the registry pointer never pauses a reader.
  current_ = std::make_shared<const FormatSelector>(std::move(next));
  version_.store(v, std::memory_order_release);
  published_.inc();
  version_gauge_.set(static_cast<double>(v));
  return v;
}

ModelSubscription::ModelSubscription(ModelRegistry& registry)
    : registry_(registry) {
  std::shared_ptr<const FormatSelector> cur = registry_.current();
  model_ = std::make_shared<const FormatSelector>(cur->clone());
  version_.store(cur->model_version(), std::memory_order_relaxed);
}

std::shared_ptr<const FormatSelector> ModelSubscription::model() {
  // Fast path: adopted version is current — hand out the local snapshot.
  // Slow path (a publish happened): clone the new version into a private
  // copy so this subscriber keeps its own inference lane, then swap. Both
  // paths serialize on the subscription mutex; only subscriber threads
  // (a service's few workers, at batch granularity) ever contend on it.
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t rv = registry_.version();
  if (rv != version_.load(std::memory_order_relaxed)) {
    std::shared_ptr<const FormatSelector> cur = registry_.current();
    model_ = std::make_shared<const FormatSelector>(cur->clone());
    version_.store(cur->model_version(), std::memory_order_relaxed);
    swaps_.fetch_add(1, std::memory_order_relaxed);
  }
  return model_;
}

}  // namespace dnnspmv
