// SelectionService — concurrent, batched, caching format selection.
//
// The serving layer over a trained FormatSelector (ROADMAP: production-
// scale traffic). Request flow:
//
//   client thread                      worker threads (Batcher)
//   ─────────────                      ────────────────────────
//   fingerprint(matrix)
//   cache lookup ── hit ─→ answer
//        │ miss
//   admission ── shed ─→ degraded answer (FallbackSelector, no queue)
//        │ admit
//   build CNN inputs
//   push PredictRequest ─→ [bounded MPMC queue] ─→ pop ≤ max_batch
//   (bounded retry+backoff      │                  drop expired requests
//    when transiently full;     │                  (deadline_exceeded)
//    degraded after budget)     ↓
//   wait on future                       one batched forward pass
//        ↑                               fulfill promises, fill cache,
//        └───────────── answer ──────────record metrics
//
// Fingerprinting and representation-building run in the client thread, so
// that per-request work scales with the number of clients; only the CNN
// forward funnels through the workers, where queue pressure coalesces into
// micro-batches. Repeated matrices are answered from the sharded LRU cache
// without touching the queue at all.
//
// Robustness (the "predictable when unhealthy" layer):
//   * Deadlines — submit() takes an optional per-request deadline. A
//     request that expires while queued is failed with
//     errc::deadline_exceeded at dequeue instead of being served; cache
//     hits and degraded answers are immediate and never expire.
//   * Load shedding — when queue occupancy crosses
//     shed_watermark × queue_capacity, new misses skip representation
//     building and the CNN entirely and are answered by the
//     FallbackSelector (hand rules over the matrix stats, see
//     serve/fallback.hpp). Clients get a slightly weaker prediction now
//     instead of blocking; the `degraded`/`shed` counters record it.
//   * Bounded retry — a transiently full queue is retried push_retries
//     times with doubling backoff (push_backoff_us base); if the queue is
//     still full the request degrades rather than blocks.
//   * Fault injection — serve/fault.hpp sites are consulted on the push
//     and worker paths, so all of the above is deterministically testable.
//     (An injected *throw* at kQueuePush propagates to the submitter.)
//
// Failure semantics per request: exactly one of
//   value            — cache hit, CNN answer, or degraded (fallback) answer
//   deadline_exceeded— expired while queued
//   service_shutdown — submitted after shutdown()
//   fault_injected   — failed by an armed fault-injection site
//   (other)          — a real forward-pass failure, forwarded verbatim
//
// Unified submit API: every entry path is one call — submit(Request&&) —
// where the Request carries whatever the caller already computed. A plain
// caller sets only `matrix`; a router that fingerprinted to pick this
// replica adds stats+fingerprint (skipping the O(nnz) rehash, counted in
// fp_reused); a hedged re-dispatch ships the retained `inputs` and no
// matrix at all. Missing pieces are derived here, in the calling thread.
// ServiceOptions::pin_cpus pins the worker pool to a core/NUMA group and
// ServiceOptions::injector scopes fault injection per replica.
//
// Construction and online learning: the one constructor takes a
// ModelRegistry& and serves its subscription, not a fixed selector (a
// caller holding just a trained selector builds
// `ModelRegistry reg(selector.clone())` first). Workers probe for newly
// published versions between micro-batches (lock-free staleness check)
// and adopt by cloning — no pause, in-flight batches finish on the
// version they started with. Cache keys mix in the model version, so a
// swap never serves a stale prediction and never needs a cache clear.
// When ServiceOptions::feedback is set, a sampled fraction of cache
// misses is probed (per-format measured SpMV times) and published to the
// feedback stream — the data the OnlineTrainer fine-tunes on.
//
// Thread safety: predict()/predict_index()/submit()/snapshot() may be
// called concurrently from any number of threads. shutdown() (or
// destruction) drains in-flight requests before returning; requests that
// arrive afterwards fail with DnnspmvError(errc::service_shutdown).
//
// Observability: every stage is instrumented through src/obs — counters
// and latency/queue-wait/batch-size histograms in the metrics registry
// under this service's prefix (see metrics()), including the robustness
// counters (deadline_expired, shed, degraded, retries, queue_depth), and,
// when obs::set_enabled is on, trace spans for fingerprint / cache probe /
// representation building / degraded answers / forward / fulfill.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <optional>
#include <thread>
#include <vector>

#include "core/feedback.hpp"
#include "core/model_registry.hpp"
#include "core/selector.hpp"
#include "serve/batcher.hpp"
#include "serve/fallback.hpp"
#include "serve/fault.hpp"
#include "serve/rep_pool.hpp"

namespace dnnspmv {

struct ServiceOptions {
  int num_workers = 2;            // batch-inference worker threads
  std::size_t max_batch = 16;     // micro-batch coalescing limit
  std::size_t queue_capacity = 256;
  std::size_t cache_capacity = 4096;  // split over 8 LRU shards

  // Worker placement: CPU ids the worker pool pins to at start-up (empty =
  // leave threads to the scheduler). Set by ReplicaRouter from its NUMA
  // plan (serve/affinity.hpp); pinning is best-effort.
  std::vector<int> pin_cpus;

  // Fault-injection scope: the injector this service's sites consult
  // (null = the process-global fault::Injector::global()). A router bench
  // or test hands one replica a private armed injector to script a
  // straggler while its siblings stay healthy. Must outlive the service.
  fault::Injector* injector = nullptr;

  // Robustness knobs. shed_watermark is a fraction of queue_capacity:
  // misses arriving above it are answered degraded instead of queued
  // (> 1.0 disables admission-control shedding; a full queue still
  // degrades after the retry budget). push_retries/push_backoff_us bound
  // how long a submitter courts a transiently full queue: attempt, sleep
  // backoff, double it, at most push_retries times.
  double shed_watermark = 0.9;
  int push_retries = 3;
  std::int64_t push_backoff_us = 50;
  // Online-learning feedback (null = no feedback). When set, a sampled
  // fraction of cache misses that carry a matrix (feedback->offer()
  // decides) is probed for per-format measured SpMV times and published
  // to this stream. Must outlive the service.
  FeedbackCollector* feedback = nullptr;
  // Probe override: per-format seconds for a matrix, candidate order.
  // Unset → measure_format_times over the registry's candidates (times
  // this host's real kernels). Benches and tests substitute an analytic
  // platform to script a drifted label distribution deterministically.
  std::function<std::vector<double>(const Csr&)> feedback_probe;
};

/// One prediction request — the single submit() currency. Exactly the
/// fields a caller happens to know; the service derives the rest:
///   * stats absent  → computed from *matrix (O(nnz));
///   * fingerprint absent → computed from stats;
///   * inputs empty  → CNN representations built from *matrix in the
///     calling thread (the miss path's per-request work).
/// `matrix` may be null only when stats+fingerprint are present AND
/// inputs are pre-built (a hedged re-dispatch); it is borrowed for the
/// duration of the submit call only.
struct Request {
  const Csr* matrix = nullptr;
  // Which kernel the caller will run with the answer. SpMM predictions
  // come from the model's SpMM head and live under op-scoped cache keys,
  // so the two ops never serve each other's answers.
  SpOp op = SpOp::kSpmv;
  std::optional<MatrixStats> stats;
  // Raw structural fingerprint (NOT op-scoped; the service scopes it).
  std::optional<std::uint64_t> fingerprint;
  std::vector<Tensor> inputs;  // pre-built CNN representations (optional)
  std::optional<std::chrono::microseconds> deadline;  // relative to now
  // Fired exactly once when the request resolves, on whatever thread
  // resolves it (see DoneCallback's contract in request_queue.hpp).
  DoneCallback done;
  // When non-null and the request reaches the queue (miss, admitted),
  // receives a copy of the CNN inputs actually enqueued — what a router
  // retains for hedged re-dispatch. Left empty on inline answers.
  std::vector<Tensor>* retain_inputs = nullptr;
};

class SelectionService {
 public:
  /// Serves `registry`'s current version and hot-swaps to every later
  /// publish. The registry must outlive the service.
  explicit SelectionService(ModelRegistry& registry, ServiceOptions opts = {});
  ~SelectionService();

  SelectionService(const SelectionService&) = delete;
  SelectionService& operator=(const SelectionService&) = delete;

  /// Blocking predict; the end-to-end latency lands in the histogram. The
  /// answer comes from the model's head for `op` (requires the registry's
  /// model to support it — see FormatSelector::supports). With a
  /// deadline, throws DnnspmvError(errc::deadline_exceeded) if the request
  /// expired queued (see class comment for the full semantics).
  Format predict(const Csr& a, SpOp op = SpOp::kSpmv,
                 std::optional<std::chrono::microseconds> deadline =
                     std::nullopt);
  std::int32_t predict_index(const Csr& a, SpOp op = SpOp::kSpmv,
                             std::optional<std::chrono::microseconds>
                                 deadline = std::nullopt);

  /// Fire-and-wait-later, every flavour: a cache hit or degraded answer
  /// yields an already-ready future, a miss enqueues. Whatever the
  /// Request doesn't carry is derived here, in the calling thread (see
  /// Request). Throws DnnspmvError(errc::invalid_argument) when the
  /// request carries neither a matrix nor enough precomputed pieces.
  std::future<std::int32_t> submit(Request&& req);

  /// Closes the queue, drains in-flight requests, joins workers.
  /// Idempotent; also called by the destructor.
  void shutdown();

  /// Counters + latency histogram; cheap, callable any time.
  ServiceStats snapshot() const;

  /// The obs-registry view behind snapshot(): metrics().registry()
  /// .snapshot(metrics().prefix()) exports the same numbers untyped,
  /// alongside whatever else the process reports.
  const ServiceMetrics& metrics() const { return metrics_; }

  /// The degraded-path selector answering shed requests.
  const FallbackSelector& fallback() const { return fallback_; }

  const std::vector<Format>& candidates() const {
    return registry_.candidates();
  }
  const ServiceOptions& options() const { return opts_; }

  /// The registry this service subscribes to — publish() here to hot-swap
  /// the model.
  ModelRegistry& registry() const { return registry_; }

  /// Model version this service's workers have adopted (may briefly lag
  /// registry().version() until the next batch boundary).
  std::uint64_t model_version() const { return subscription_.version(); }

  /// Approximate queue occupancy now (the admission-control mirror); the
  /// metrics' queue_depth gauge holds it as of the last push or pop.
  std::size_t queue_depth() const { return queue_.approx_size(); }

  /// The recycled CNN-input buffer pool behind the miss path (tests assert
  /// its steady-state behaviour through this).
  const RepBufferPool& rep_pool() const { return rep_pool_; }

 private:
  /// Immediate fallback answer for a shed miss (stats already computed).
  /// Consumes `done` (fires it with the degraded answer) when set.
  std::future<std::int32_t> answer_degraded(const MatrixStats& st,
                                            bool by_watermark,
                                            DoneCallback done);

  /// Cache probe → shed check shared by every submit flavour. Returns an
  /// engaged future when the request resolved inline (hit or shed).
  std::optional<std::future<std::int32_t>> answer_inline(
      const MatrixStats& st, std::uint64_t fp, DoneCallback& done);

  /// Bounded-retry enqueue of a fully-built request (common tail of every
  /// submit flavour). Falls back to the degraded path when the queue stays
  /// full and fails the request when the queue is closed.
  std::future<std::int32_t> enqueue(PredictRequest&& req,
                                    const MatrixStats& st,
                                    std::optional<std::chrono::microseconds>
                                        deadline);

  /// Sampled miss-path feedback: when the collector's gate says yes,
  /// probes `a` for per-format measured times and publishes
  /// (fp, inputs, times). Runs in the submitting thread; the gate keeps
  /// the steady-state cost at one atomic increment.
  void maybe_publish_feedback(const Csr& a, std::uint64_t fp,
                              const std::vector<Tensor>& inputs);

  ModelRegistry& registry_;
  ModelSubscription subscription_;  // must precede batcher_
  ServiceOptions opts_;
  StreamingRepBuilder rep_builder_;  // geometry pinned by the registry
  FallbackSelector fallback_;
  std::size_t shed_threshold_;  // queue occupancy that triggers shedding
  fault::Injector* injector_;   // opts_.injector or the global instance
  std::function<std::vector<double>(const Csr&)> feedback_probe_;
  PredictionCache cache_;
  RequestQueue queue_;
  ServiceMetrics metrics_;
  RepBufferPool rep_pool_;  // must precede batcher_ (the batcher recycles
                            // served input buffers into it)
  Batcher batcher_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopped_{false};
};

}  // namespace dnnspmv
