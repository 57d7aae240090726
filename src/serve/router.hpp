// ReplicaRouter — sharded, hedged serving tier above SelectionService.
//
// One SelectionService is one queue, one worker pool, one model instance
// (forward passes serialize on the selector's inference mutex) — a ceiling
// no amount of client threads moves. The router scales that out. Its one
// constructor takes the ModelRegistry every replica subscribes to:
//
//            client thread
//            ─────────────
//            stats + fingerprint (once — replicas never rehash)
//                  │
//            consistent-hash ring  (128 points per replica; repeat
//                  │                matrices stay cache-warm on one replica)
//         ┌────────┴──────────┬──────────────────┐
//      replica 0           replica 1    …     replica N-1
//      registry subscriber registry subscriber   (one ModelRegistry is the
//      (adopts published   (adopts published      tier's single publication
//       versions by clone)  versions by clone)    path; hot swap per
//      own cache shard     own cache shard        replica, no restart)
//      own bounded queue   own bounded queue
//      workers pinned to   workers pinned to
//      core/NUMA group 0   core/NUMA group 1     (serve/affinity.hpp)
//
// Hedged re-dispatch: a cache miss enqueued on its primary replica is
// watched by the router's hedge timer. If it is still unresolved after a
// budget derived from the router's own CNN-wait histogram (its 0.95
// quantile clamped to [500 µs, 100 ms], or a fixed override), the
// retained input copy is re-submitted to the key's ring sibling and the
// two dispatches race; the router's future resolves exactly once with the
// first answer (mutex-guarded first-wins, tsan-clean). Errors are held
// back while a sibling might still answer — the request fails only when
// every dispatch has failed. Each replica's own degraded path
// (FallbackSelector) remains the last resort, so availability survives
// both replicas shedding.
//
// Failure semantics per request: exactly one of
//   value            — primary answer, hedge answer, or degraded answer
//   deadline_exceeded— expired on every dispatched replica
//   service_shutdown — submitted after shutdown()
//   (other)          — every dispatch failed; the first error is forwarded
//
// Observability: the router registers under a fresh "router<N>." prefix in
// the obs registry — requests/hedge/hedge_won/misrouted/errors counters,
// per-replica replica<i>_depth gauges, the hedge_budget_us gauge, and the
// cnn_wait_us/latency_us histograms — next to each replica's own
// "serve<M>." block. snapshot() is the typed view of all of it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/affinity.hpp"
#include "serve/service.hpp"

namespace dnnspmv {

/// Consistent-hash ring mapping structural fingerprints to replica ids.
/// Each replica owns 128 points on the ring (splitmix64-placed); a
/// fingerprint's primary is the first point clockwise, its sibling the
/// next point owned by a *different* replica. Exposed for balance tests.
class HashRing {
 public:
  explicit HashRing(int replicas);

  int primary(std::uint64_t fp) const;
  /// Hedge target: next distinct replica clockwise (== primary only when
  /// the ring has a single replica).
  int sibling(std::uint64_t fp) const;
  int replicas() const { return replicas_; }

 private:
  std::size_t position(std::uint64_t fp) const;

  int replicas_;
  std::vector<std::pair<std::uint64_t, int>> ring_;  // sorted by hash
};

struct RouterOptions {
  int replicas = 2;
  /// Template for every replica's service. cache_capacity is the ROUTER
  /// total: it is divided by `replicas` (floor 64) since the ring already
  /// partitions the keyspace.
  ServiceOptions service;

  // Hedging. The budget is the 0.95 quantile of the router's cnn_wait_us
  // histogram, clamped to [500 µs, 100 ms] and refreshed every 32 CNN
  // answers; until then the 500 µs floor applies (hedge early, learn up).
  // hedge_fixed_us > 0 bypasses the quantile entirely — deterministic
  // tests and benches use it.
  bool hedge = true;
  std::int64_t hedge_fixed_us = 0;

  // Placement: plan one core/NUMA group per replica (serve/affinity.hpp)
  // and pin each replica's workers to its group. Best-effort.
  bool pin_workers = true;

  // Per-replica fault injectors (index = replica id; null entries and
  // missing tail entries mean "use the global injector"). How a bench or
  // test scripts a straggler replica end to end.
  std::vector<fault::Injector*> injectors;
};

/// Plain-value snapshot of the router tier plus every replica underneath.
struct RouterStats {
  std::uint64_t requests = 0;
  std::uint64_t hedges = 0;      // hedged re-dispatches issued
  std::uint64_t hedge_won = 0;   // races the sibling's answer won
  std::uint64_t misrouted = 0;   // hedge wins served from the sibling's
                                 // cache (the key was warm on the wrong
                                 // replica — ring-move or duplicate)
  std::uint64_t errors = 0;      // requests that failed on every dispatch
  std::int64_t hedge_budget_us = 0;  // budget in force at snapshot time
  std::vector<ServiceStats> replica;

  /// Sums over replicas (hedged requests can count on two replicas).
  std::uint64_t total_hits() const;
  std::uint64_t total_degraded() const;
  std::uint64_t total_fp_reused() const;
  double hit_rate() const;
  /// Requests that produced an answer (any source) over all submitted.
  double availability() const {
    return requests == 0 ? 1.0
                         : static_cast<double>(requests - errors) /
                               static_cast<double>(requests);
  }
};

class ReplicaRouter {
 public:
  /// All replicas subscribe to `registry` — one publication path for the
  /// whole tier. Each replica's subscription still adopts by clone, so
  /// inference lanes stay independent (see core/model_registry.hpp); a
  /// publish hot-swaps every replica at its next batch boundary. The
  /// registry must outlive the router.
  explicit ReplicaRouter(ModelRegistry& registry, RouterOptions opts = {});
  ~ReplicaRouter();

  ReplicaRouter(const ReplicaRouter&) = delete;
  ReplicaRouter& operator=(const ReplicaRouter&) = delete;

  /// Routes by structural fingerprint; hedges per RouterOptions. The
  /// returned future resolves exactly once (see class comment). Routing
  /// uses the raw (op-agnostic) fingerprint — both ops of one matrix land
  /// on the same replica, which keeps its stats/rep work cache-warm — and
  /// each replica op-scopes its cache keys underneath.
  std::future<std::int32_t> submit(const Csr& a, SpOp op = SpOp::kSpmv,
                                   std::optional<std::chrono::microseconds>
                                       deadline = std::nullopt);

  /// Blocking wrappers; end-to-end latency lands in router latency_us.
  std::int32_t predict_index(const Csr& a, SpOp op = SpOp::kSpmv,
                             std::optional<std::chrono::microseconds>
                                 deadline = std::nullopt);
  Format predict(const Csr& a, SpOp op = SpOp::kSpmv,
                 std::optional<std::chrono::microseconds> deadline =
                     std::nullopt);

  /// Stops the hedge timer, then drains every replica. Idempotent; also
  /// called by the destructor. In-flight requests still resolve.
  void shutdown();

  RouterStats snapshot() const;

  std::size_t num_replicas() const { return services_.size(); }
  SelectionService& replica(std::size_t i) { return *services_[i]; }
  const HashRing& ring() const { return ring_; }
  /// The worker-placement plan (empty when pin_workers was off).
  const std::vector<affinity::CpuGroup>& placement() const {
    return placement_;
  }
  /// Hedge budget currently in force (µs).
  std::int64_t hedge_budget_us() const {
    return budget_us_.load(std::memory_order_relaxed);
  }
  const RouterOptions& options() const { return opts_; }
  const std::vector<Format>& candidates() const {
    return services_.front()->candidates();
  }

  /// The registry every replica subscribes to — publish() here to hot-swap
  /// the tier.
  ModelRegistry& registry() const { return registry_; }

 private:
  struct HedgeState;

  /// First-wins resolution of one dispatch's outcome into the state.
  void complete(const std::shared_ptr<HedgeState>& s, std::int32_t idx,
                AnswerSource src, std::exception_ptr err, bool from_hedge);
  /// Resolves a terminally-failed state (no dispatch left, no hedge
  /// coming). Caller holds s->mu.
  void finalize_locked(HedgeState& s);
  /// Re-dispatches `s` to its ring sibling (hedge timer callback).
  void fire_hedge(const std::shared_ptr<HedgeState>& s);
  void run_hedger();
  void refresh_budget();

  ModelRegistry& registry_;
  RouterOptions opts_;
  HashRing ring_;
  std::vector<affinity::CpuGroup> placement_;
  std::vector<std::unique_ptr<SelectionService>> services_;

  // Metrics (router<N>. prefix in the global obs registry).
  std::string prefix_;
  obs::Counter& requests_;
  obs::Counter& hedges_;
  obs::Counter& hedge_won_;
  obs::Counter& misrouted_;
  obs::Counter& errors_;
  obs::Gauge& budget_gauge_;
  obs::Histogram& cnn_wait_us_;
  obs::Histogram& latency_us_;
  std::vector<obs::Gauge*> depth_gauges_;

  // Adaptive hedge budget (µs), refreshed from cnn_wait_us_.
  std::atomic<std::int64_t> budget_us_;
  std::atomic<std::uint64_t> waits_since_refresh_{0};

  // Hedge timer: min-heap of (fire-at µs, state) drained by one thread.
  std::mutex hedge_mu_;
  std::condition_variable hedge_cv_;
  std::multimap<std::int64_t, std::shared_ptr<HedgeState>> hedge_queue_;
  bool hedge_stop_ = false;
  std::thread hedger_;

  std::atomic<bool> stopped_{false};
};

}  // namespace dnnspmv
