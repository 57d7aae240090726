#include "serve/service.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"
#include "perf/platform.hpp"
#include "serve/affinity.hpp"
#include "serve/fingerprint.hpp"
#include "tensor/arena.hpp"

namespace dnnspmv {
namespace {

constexpr std::size_t kCacheShards = 8;

std::size_t shed_threshold_for(const ServiceOptions& opts) {
  if (opts.shed_watermark > 1.0) return SIZE_MAX;  // shedding disabled
  const auto t = static_cast<std::size_t>(
      opts.shed_watermark * static_cast<double>(opts.queue_capacity));
  return std::max<std::size_t>(1, t);
}

/// Ready future carrying `idx`; also consumes `done` on the success path.
std::future<std::int32_t> ready_future(std::int32_t idx, AnswerSource src,
                                       DoneCallback& done) {
  if (done) {
    PredictRequest tmp;
    tmp.done = std::move(done);
    invoke_done(tmp, idx, src, nullptr);
  }
  std::promise<std::int32_t> ready;
  ready.set_value(idx);
  return ready.get_future();
}

}  // namespace

SelectionService::SelectionService(ModelRegistry& registry,
                                   ServiceOptions opts)
    : registry_(registry),
      subscription_(registry_),
      opts_(std::move(opts)),
      rep_builder_(registry_.current()->rep_builder()),
      fallback_(registry_.candidates()),
      shed_threshold_(shed_threshold_for(opts_)),
      injector_(opts_.injector ? opts_.injector : &fault::Injector::global()),
      feedback_probe_(opts_.feedback_probe),
      cache_(opts_.cache_capacity, kCacheShards),
      queue_(opts_.queue_capacity),
      // Enough pooled buffer sets to cover every request that can be in
      // flight at once (queued + being batched per worker), so a loaded
      // steady state never finds the pool dry.
      rep_pool_(opts_.queue_capacity +
                static_cast<std::size_t>(std::max(opts_.num_workers, 1)) *
                    opts_.max_batch),
      batcher_(subscription_, queue_, cache_, metrics_, opts_.max_batch,
               injector_, &rep_pool_) {
  DNNSPMV_CHECK_ERRC(opts_.num_workers > 0, errc::invalid_argument,
                     "need at least one worker");
  DNNSPMV_CHECK_ERRC(opts_.shed_watermark > 0.0, errc::invalid_argument,
                     "shed_watermark must be positive (use > 1 to disable)");
  DNNSPMV_CHECK_ERRC(opts_.push_retries >= 0, errc::invalid_argument,
                     "push_retries must be non-negative");
  DNNSPMV_CHECK_ERRC(opts_.push_backoff_us >= 0, errc::invalid_argument,
                     "push_backoff_us must be non-negative");
  if (opts_.feedback && !feedback_probe_) {
    // Default probe: time this host's real kernels over the registry's
    // candidates — the same measured-label path the offline pipeline uses.
    feedback_probe_ = [formats = registry_.candidates(),
                       reps = opts_.feedback->options().measure_reps](
                          const Csr& a) {
      return measure_format_times(a, formats, reps);
    };
  }
  metrics_.record_model_version(subscription_.version());
  workers_.reserve(static_cast<std::size_t>(opts_.num_workers));
  for (int i = 0; i < opts_.num_workers; ++i)
    workers_.emplace_back([this] {
      // Best-effort: an unpinnable host just leaves the scheduler in charge.
      if (!opts_.pin_cpus.empty()) affinity::pin_current_thread(opts_.pin_cpus);
      batcher_.run();
    });
}

SelectionService::~SelectionService() { shutdown(); }

void SelectionService::shutdown() {
  if (stopped_.exchange(true)) return;
  queue_.close();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
}

std::future<std::int32_t> SelectionService::answer_degraded(
    const MatrixStats& st, bool by_watermark, DoneCallback done) {
  obs::Span span("serve.degraded");
  // Degraded answers are deliberately NOT cached: the fallback's pick may
  // differ from the CNN's, and a cached heuristic answer would keep being
  // served after the overload has passed. Repeats of the same matrix under
  // sustained overload re-run the fallback, a few compares on the stats.
  const std::int32_t idx = fallback_.predict_index(st);
  metrics_.record_degraded(by_watermark);
  return ready_future(idx, AnswerSource::kDegraded, done);
}

std::optional<std::future<std::int32_t>> SelectionService::answer_inline(
    const MatrixStats& st, std::uint64_t fp, DoneCallback& done) {
  {
    obs::Span span("serve.cache_probe");
    std::int32_t cached = 0;
    // Probes are keyed under the version the workers have adopted: after
    // a hot swap the key space moves and the old version's entries age
    // out of the LRU on their own (no clear, no stale answers).
    if (cache_.get(versioned_cache_key(fp, subscription_.version()),
                   cached)) {
      metrics_.record_hit();
      return ready_future(cached, AnswerSource::kCache, done);
    }
  }
  metrics_.record_miss();

  // Admission control: above the watermark a miss is shed to the degraded
  // path *before* the expensive representation build — under overload the
  // whole submit stays O(nnz) (the stats pass it already paid).
  if (queue_.approx_size() >= shed_threshold_)
    return answer_degraded(st, true, std::move(done));
  return std::nullopt;
}

std::future<std::int32_t> SelectionService::enqueue(
    PredictRequest&& req, const MatrixStats& st,
    std::optional<std::chrono::microseconds> deadline) {
  std::future<std::int32_t> fut = req.result.get_future();
  req.enqueued_at_us = obs::now_us();
  if (deadline) req.deadline_us = req.enqueued_at_us + deadline->count();

  std::int64_t backoff_us = opts_.push_backoff_us;
  for (int attempt = 0;; ++attempt) {
    PushResult pr;
    if (injector_->enabled() && injector_->inject(fault::Site::kQueuePush))
      pr = PushResult::kFull;  // injected transient full-queue
    else
      pr = queue_.try_push(std::move(req));
    if (pr == PushResult::kOk) {
      metrics_.record_queue_depth(queue_.approx_size());
      return fut;
    }
    if (pr == PushResult::kClosed) {
      metrics_.rejected.inc();
      const auto err = std::make_exception_ptr(DnnspmvError(
          errc::service_shutdown,
          "SelectionService is shut down; request rejected"));
      invoke_done(req, -1, AnswerSource::kError, err);
      std::promise<std::int32_t> failed;
      failed.set_exception(err);
      return failed.get_future();
    }
    // Transiently full: bounded retry with doubling backoff, then shed.
    if (attempt >= opts_.push_retries) break;
    metrics_.retries.inc();
    if (backoff_us > 0)
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    backoff_us *= 2;
  }
  return answer_degraded(st, false, std::move(req.done));
}

void SelectionService::maybe_publish_feedback(
    const Csr& a, std::uint64_t fp, const std::vector<Tensor>& inputs) {
  if (!opts_.feedback || !opts_.feedback->offer()) return;
  obs::Span span("serve.feedback_probe");
  FeedbackSample s;
  s.fingerprint = fp;
  s.inputs = inputs;  // copy; the originals are about to be enqueued
  s.format_times = feedback_probe_(a);
  opts_.feedback->publish(std::move(s));
}

std::future<std::int32_t> SelectionService::submit(Request&& r) {
  MatrixStats st;
  if (r.stats) {
    st = *r.stats;
  } else {
    DNNSPMV_CHECK_ERRC(r.matrix != nullptr, errc::invalid_argument,
                       "Request needs a matrix when stats are not supplied");
    obs::Span span("serve.fingerprint");
    st = compute_stats(*r.matrix);
  }
  std::uint64_t fp;
  if (r.fingerprint) {
    fp = *r.fingerprint;
    metrics_.fp_reused.inc();
  } else {
    fp = structural_fingerprint(st);
  }
  // All downstream keys (cache probe, queue entry, feedback) use the
  // op-scoped fingerprint, so the two ops never collide in the cache.
  fp = op_scoped_fingerprint(fp, r.op);
  metrics_.record_op(r.op);

  DoneCallback done = std::move(r.done);
  if (auto inline_answer = answer_inline(st, fp, done))
    return std::move(*inline_answer);

  PredictRequest req;
  req.fingerprint = fp;
  req.op = r.op;
  if (!r.inputs.empty()) {
    req.inputs = std::move(r.inputs);
  } else {
    DNNSPMV_CHECK_ERRC(r.matrix != nullptr, errc::invalid_argument,
                       "Request needs a matrix when inputs are not supplied");
    obs::Span span("serve.prepare_inputs");
    Timer timer;
    req.inputs = rep_pool_.acquire();
    rep_builder_.build_into(*r.matrix, thread_arena(), req.inputs);
    metrics_.rep_build.observe_seconds(timer.seconds());
  }
  if (r.retain_inputs) *r.retain_inputs = req.inputs;  // hedge copy
  // Miss-path feedback: sampled, and only when the matrix is available to
  // probe (a hedged re-dispatch of pre-built inputs is not). SpMM misses
  // don't feed it: the probe measures SpMV times, and training the online
  // loop's SpMV head on SpMM-keyed samples would corrupt both heads.
  if (r.matrix != nullptr && r.op == SpOp::kSpmv)
    maybe_publish_feedback(*r.matrix, fp, req.inputs);
  req.done = std::move(done);
  return enqueue(std::move(req), st, r.deadline);
}

std::int32_t SelectionService::predict_index(
    const Csr& a, SpOp op, std::optional<std::chrono::microseconds> deadline) {
  obs::Span span("serve.predict");
  Timer timer;
  Request r;
  r.matrix = &a;
  r.op = op;
  r.deadline = deadline;
  std::future<std::int32_t> fut = submit(std::move(r));
  const std::int32_t idx = fut.get();
  metrics_.latency.observe_seconds(timer.seconds());
  return idx;
}

Format SelectionService::predict(
    const Csr& a, SpOp op, std::optional<std::chrono::microseconds> deadline) {
  return candidates()[static_cast<std::size_t>(
      predict_index(a, op, deadline))];
}

ServiceStats SelectionService::snapshot() const {
  return metrics_.snapshot(cache_.size());
}

}  // namespace dnnspmv
