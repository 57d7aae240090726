#include "serve/batcher.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/trace.hpp"
#include "serve/fault.hpp"
#include "serve/fingerprint.hpp"

namespace dnnspmv {
namespace {

/// Fails one request's promise, tolerating an already-satisfied one (the
/// fulfil/fail race on shutdown paths must never terminate the process).
/// The completion hook (if any) fires after the promise, err in hand.
void fail_request(PredictRequest& r, const std::exception_ptr& err) {
  try {
    r.result.set_exception(err);
  } catch (const std::future_error&) {
    // promise already satisfied — nothing to deliver
  }
  invoke_done(r, -1, AnswerSource::kError, err);
}

}  // namespace

Batcher::Batcher(ModelSubscription& models, RequestQueue& queue,
                 PredictionCache& cache, ServiceMetrics& metrics,
                 std::size_t max_batch, fault::Injector* injector,
                 RepBufferPool* pool)
    : models_(models),
      queue_(queue),
      cache_(cache),
      metrics_(metrics),
      max_batch_(max_batch),
      injector_(injector ? injector : &fault::Injector::global()),
      pool_(pool) {
  DNNSPMV_CHECK(max_batch > 0);
}

void Batcher::serve_batch(std::vector<PredictRequest>& batch, Workspace& ws,
                          const FormatSelector& model) {
  if (batch.empty()) return;
  // Recycles a request's (or assembled) input buffers into the pool; a
  // moved-from / empty set is a no-op, so it is safe to offer both the
  // request and the assembled copy on error paths. Every path recycles
  // before it resolves the promise, as it counts and caches first: a
  // client that sees its answer finds the buffers already pooled.
  const auto recycle = [this](std::vector<Tensor>&& bufs) {
    if (pool_) pool_->release(std::move(bufs));
  };
  // Queue wait is charged when a worker first sees the batch: the gap
  // between submit()'s enqueue stamp and now.
  const std::int64_t popped_us = obs::now_us();
  for (const PredictRequest& r : batch)
    if (r.enqueued_at_us >= 0)
      metrics_.queue_wait.observe(
          static_cast<double>(popped_us - r.enqueued_at_us));

  // Deadline enforcement happens here, at dequeue: a request that expired
  // while queued is failed instead of served — spending a forward pass on
  // it would only delay the still-live requests behind it. (A request can
  // still expire *during* the forward; it then gets its answer late. The
  // dequeue check bounds queue-wait, not compute.) The kWorkerPop fault
  // site drops requests the same way, with errc::fault_injected.
  fault::Injector& inj = *injector_;
  // Each failure is counted before its promise resolves, so a client that
  // sees it and then takes a snapshot finds it counted.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    PredictRequest& r = batch[i];
    if (r.deadline_us >= 0 && popped_us > r.deadline_us) {
      metrics_.deadline_expired.inc();
      recycle(std::move(r.inputs));
      fail_request(r, std::make_exception_ptr(DnnspmvError(
                          errc::deadline_exceeded,
                          "request expired in queue before a worker "
                          "could serve it")));
      continue;
    }
    if (inj.enabled() && inj.decide(fault::Site::kWorkerPop).should_drop) {
      metrics_.failed.inc();
      recycle(std::move(r.inputs));
      fail_request(r, std::make_exception_ptr(DnnspmvError(
                          errc::fault_injected,
                          "injected drop at serve site 'worker_pop'")));
      continue;
    }
    if (kept != i) batch[kept] = std::move(batch[i]);
    ++kept;
  }
  batch.resize(kept);
  if (batch.empty()) return;

  // A micro-batch may mix ops; each selector head gets one forward pass
  // over its contiguous group. Partitioning is stable so intra-op FIFO
  // order (and thus fulfilment order per client stream) is preserved.
  const auto mid = std::stable_partition(
      batch.begin(), batch.end(),
      [](const PredictRequest& r) { return r.op == SpOp::kSpmv; });
  const std::size_t n_spmv =
      static_cast<std::size_t>(mid - batch.begin());

  // Serves batch[lo, hi) — all the same op — with one forward pass.
  const auto serve_group = [&](std::size_t lo, std::size_t hi, SpOp op) {
    if (lo == hi) return;
    const std::size_t n = hi - lo;
    std::vector<std::vector<Tensor>> prepared;
    // Served or failed, the input buffers are dead. They live in
    // `prepared` once assembled and in `batch` before that (a pre-assembly
    // failure), so offer both containers; only the non-empty ones pool.
    const auto recycle_group = [&] {
      for (std::vector<Tensor>& bufs : prepared) recycle(std::move(bufs));
      for (std::size_t i = lo; i < hi; ++i)
        recycle(std::move(batch[i].inputs));
    };
    try {
      inj.inject(fault::Site::kForward);
      prepared.reserve(n);
      {
        obs::Span span("serve.batch_assemble");
        for (std::size_t i = lo; i < hi; ++i)
          prepared.push_back(std::move(batch[i].inputs));
      }
      std::vector<std::int32_t> picks;
      {
        obs::Span span("serve.forward");
        picks = model.predict_prepared(prepared, &ws, op);
      }
      DNNSPMV_CHECK(picks.size() == n);
      // Cache, metrics and buffers first, promises last: once a client
      // unblocks, its prediction is already cached, the batch counters
      // already reflect it (snapshot() right after predict() must see this
      // forward) and its buffers are pooled. Entries are keyed under the
      // version that produced them, so probes stop hitting them once the
      // service moves to a newer version. (Fingerprints arrive op-scoped
      // from the submitter.)
      obs::Span span("serve.fulfill");
      for (std::size_t i = 0; i < n; ++i)
        cache_.put(versioned_cache_key(batch[lo + i].fingerprint,
                                       model.model_version()),
                   picks[i]);
      metrics_.record_batch(n);
      recycle_group();
      for (std::size_t i = 0; i < n; ++i) {
        batch[lo + i].result.set_value(picks[i]);
        invoke_done(batch[lo + i], picks[i], AnswerSource::kCnn, nullptr);
      }
    } catch (...) {
      // A failed forward (real or injected) fails its whole group; each
      // waiting client gets the exception instead of a hang.
      const std::exception_ptr err = std::current_exception();
      metrics_.failed.inc(n);
      recycle_group();
      for (std::size_t i = lo; i < hi; ++i) fail_request(batch[i], err);
    }
  };
  serve_group(0, n_spmv, SpOp::kSpmv);
  serve_group(n_spmv, batch.size(), SpOp::kSpmm);
}

void Batcher::run() {
  Workspace ws;  // per-worker scratch, reused across every served batch
  std::vector<PredictRequest> batch;
  // Per-worker model snapshot. The staleness probe between batches is one
  // relaxed atomic compare; adoption (clone of the published version) only
  // runs when a publish actually happened. Holding the shared_ptr across
  // serve_batch pins the version for the whole micro-batch.
  std::shared_ptr<const FormatSelector> model = models_.model();
  metrics_.record_model_version(model->model_version());
  while (true) {
    batch.clear();
    if (queue_.pop_batch(batch, max_batch_) == 0) return;
    metrics_.record_queue_depth(queue_.approx_size());
    if (models_.stale()) {
      model = models_.model();
      metrics_.record_model_swap(model->model_version());
    }
    serve_batch(batch, ws, *model);
  }
}

}  // namespace dnnspmv
