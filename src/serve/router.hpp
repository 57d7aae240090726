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
// Observability: DNNSPMV_ROUTER_METRICS below is the router's one metrics
// table; its instruments register under a fresh "router<N>." prefix in the
// global obs registry, next to each replica's own "serve<M>." block (whose
// queue_depth gauge tracks that replica's queue). snapshot() is the typed
// view of all of it.
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

// One row per router instrument (row format: obs/metrics.hpp).
// clang-format off
#define DNNSPMV_ROUTER_METRICS(X)                                                     \
  X(Counter, requests, "requests", "requests routed")                                 \
  X(Counter, hedges, "hedges", "hedged re-dispatches issued")                         \
  X(Counter, hedge_won, "hedge_won", "races the sibling's answer won")                \
  X(Counter, misrouted, "misrouted", "hedge wins answered from the sibling's cache")  \
  X(Counter, errors, "errors", "requests that failed on every dispatch")              \
  X(Gauge, hedge_budget_us, "hedge_budget_us", "hedge budget in force")               \
  X(Histogram, cnn_wait, "cnn_wait_us", "submit to CNN answer; sets the hedge budget") \
  X(Histogram, latency, "latency_us", "submit to answer of each blocking predict()")
// clang-format on

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
/// A misrouted hedge win means the key was warm on a replica the ring no
/// longer routes it to (a ring move or a duplicate).
struct RouterStats {
  DNNSPMV_ROUTER_METRICS(DNNSPMV_OBS_FIELD)
  std::vector<ServiceStats> replica;

  /// `field` summed over replicas, e.g. total(&ServiceStats::cache_hits)
  /// (hedged requests can count on two replicas).
  std::uint64_t total(std::uint64_t ServiceStats::*field) const;
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
  /// This router's prefix ("router<N>.") in the global obs registry.
  const std::string& metrics_prefix() const { return metrics_.prefix_; }
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

  // The router<N>. block: one handle per table row.
  struct Metrics {
    Metrics();
    RouterStats read() const;  // every row; the replicas are left empty
    std::string prefix_;  // precedes the handles: registering them reads it
    DNNSPMV_ROUTER_METRICS(DNNSPMV_OBS_HANDLE)
  };
  Metrics metrics_;

  // Adaptive hedge budget (µs), refreshed from the cnn_wait histogram and
  // exported through the hedge_budget_us gauge. Routing reads this atomic,
  // not the gauge, so a registry reset() never moves the budget.
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
