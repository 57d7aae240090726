// Micro-batching worker: drains the request queue and answers requests
// with batched CNN inference.
//
// Each worker loops on RequestQueue::pop_batch(max_batch): whatever is
// queued when it wakes (1..max_batch requests) becomes one batched forward
// pass through FormatSelector::predict_prepared — the batched-tensor path
// the trainer already uses, not N single-sample forwards. Results go three
// ways: the waiting client (via the request's promise), the prediction
// cache (so the next identical matrix never reaches the queue), and the
// metrics block.
//
// Inference inside FormatSelector is internally serialized (see
// selector.hpp), so multiple workers are safe; extra workers overlap their
// batch-assembly and promise bookkeeping with each other's forwards.
//
// Robustness (ISSUE 5): requests whose deadline passed while queued are
// failed with errc::deadline_exceeded at dequeue rather than served, and
// the serve/fault.hpp injection sites kWorkerPop (drop) and kForward
// (delay/throw) are consulted on every batch, so the failure paths are
// exercised deterministically in tests. Every popped request's promise is
// satisfied exactly once — value, deadline error, injected error, or
// forward error — never leaked.
//
// Model adoption (ISSUE 8): workers serve off a ModelSubscription instead
// of a fixed selector. Between batches a worker runs the subscription's
// lock-free staleness probe and adopts newly published versions; *within*
// a batch the model is pinned — the worker holds the snapshot's
// shared_ptr across the forward pass, so a publish mid-batch never moves
// the model under a running inference (RCU: the old version stays alive
// until its last in-flight batch drops the reference). Cache entries are
// keyed by (fingerprint, model version), so predictions from a superseded
// version stop being served as soon as probes move to the new key space.
#pragma once

#include <memory>

#include "core/lru_cache.hpp"
#include "core/model_registry.hpp"
#include "core/selector.hpp"
#include "serve/fault.hpp"
#include "serve/metrics.hpp"
#include "serve/rep_pool.hpp"
#include "serve/request_queue.hpp"

namespace dnnspmv {

class Batcher {
 public:
  /// `injector` scopes fault injection (null → the process-global one), so
  /// a router can make exactly one replica's workers unhealthy. `pool`
  /// (optional) receives every served request's input buffers back for
  /// reuse — the release half of the miss path's allocation-free loop.
  Batcher(ModelSubscription& models, RequestQueue& queue,
          PredictionCache& cache, ServiceMetrics& metrics,
          std::size_t max_batch, fault::Injector* injector = nullptr,
          RepBufferPool* pool = nullptr);

  /// Worker loop; returns when the queue is closed and fully drained.
  /// Never throws: inference failures are forwarded to the waiting
  /// clients through their promises. Each run() owns one Workspace that
  /// every batch it serves reuses, so a worker thread's miss-path
  /// inference stops allocating once shapes have been seen.
  void run();

  /// Answers one popped batch on `model` (the version pinned for this
  /// batch) with the given per-worker scratch workspace.
  void serve_batch(std::vector<PredictRequest>& batch, Workspace& ws,
                   const FormatSelector& model);

 private:
  ModelSubscription& models_;
  RequestQueue& queue_;
  PredictionCache& cache_;
  ServiceMetrics& metrics_;
  std::size_t max_batch_;
  fault::Injector* injector_;
  RepBufferPool* pool_;  // may be null (no recycling)
};

}  // namespace dnnspmv
