// Service metrics: one table, a typed view over the obs registry.
//
// DNNSPMV_SERVICE_METRICS lists every instrument of a service, one row each
// (obs/metrics.hpp explains the row format). ServiceStats' members and
// ServiceMetrics' handles, their registration under a per-service prefix
// ("serve0.", "serve1.", …) in the global registry and snapshot()'s copies
// all expand from it, so one registry export shows every live service next
// to the nn/sparse instrumentation. Recording is one relaxed atomic per
// instrument, and snapshot() matches the registry export for the same run
// because both read the same atomics. Histograms come out as
// obs::Histogram::Snapshot, in µs where the name says so.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "sparse/format.hpp"

// clang-format off
#define DNNSPMV_SERVICE_METRICS(X)                                                        \
  X(Counter, requests, "requests", "predictions asked of the service")                    \
  X(Counter, cache_hits, "cache_hits", "answered from the LRU cache")                     \
  X(Counter, cache_misses, "cache_misses", "missed the cache")                            \
  X(Counter, rejected, "rejected", "misses refused by a closed queue (shutdown)")         \
  X(Counter, failed, "failed", "failed by the batcher for a reason other than deadline")  \
  X(Counter, deadline_expired, "deadline_expired", "expired while queued, failed at pop") \
  X(Counter, shed, "shed", "misses shed by admission control")                            \
  X(Counter, degraded, "degraded", "answered by the FallbackSelector")                    \
  X(Counter, retries, "retries", "backoff retries of full-queue pushes")                  \
  X(Counter, fp_reused, "fp_reused", "caller-supplied fingerprint skipped the rehash")    \
  X(Counter, spmv_requests, "spmv_requests", "requests for an SpMV pick")                 \
  X(Counter, spmm_requests, "spmm_requests", "requests for an SpMM pick")                 \
  X(Counter, batches, "batches", "forward passes executed")                               \
  X(Counter, batched_samples, "batched_samples", "requests summed over those batches")    \
  X(Counter, model_swaps, "model_swaps", "hot swaps adopted since start")                 \
  X(Gauge, max_batch, "max_batch", "largest coalesced batch seen")                        \
  X(Gauge, cache_entries, "cache_entries", "live cache entries at the last snapshot")     \
  X(Gauge, queue_depth, "queue_depth", "queue occupancy at the last push or pop")         \
  X(Gauge, model_version, "model_version", "registry version the workers serve")          \
  X(Histogram, latency, "latency_us", "submit to answer of each blocking predict()")      \
  X(Histogram, queue_wait, "queue_wait_us", "enqueue to worker pop of each miss")         \
  X(Histogram, batch_size, "batch_size", "requests per forward pass")                     \
  X(Histogram, rep_build, "rep_build_us", "client-thread input build per admitted miss")
// clang-format on

namespace dnnspmv {

/// Plain-value snapshot of a ServiceMetrics block.
struct ServiceStats {
  DNNSPMV_SERVICE_METRICS(DNNSPMV_OBS_FIELD)

  /// Fraction of requests that received a prediction (from the cache, the
  /// CNN, or the degraded path). Every request that got none was counted
  /// in `requests` first, then as exactly one of: `rejected` (refused by a
  /// closed queue), `deadline_expired` (expired while queued) or `failed`
  /// (an injected drop, a forward that threw).
  double availability() const {
    const std::uint64_t lost = rejected + deadline_expired + failed;
    // A snapshot taken under load reads `requests` first, so the later
    // counters may include requests it has not seen yet.
    return requests == 0 ? 1.0
                         : static_cast<double>(requests -
                                               std::min(lost, requests)) /
                               static_cast<double>(requests);
  }

  double hit_rate() const {
    const std::uint64_t seen = cache_hits + cache_misses;
    return seen == 0 ? 0.0
                     : static_cast<double>(cache_hits) /
                           static_cast<double>(seen);
  }

  double mean_batch() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(batched_samples) /
                              static_cast<double>(batches);
  }
};

class ServiceMetrics {
 public:
  /// Registers the table's instruments in the global registry under a
  /// fresh "serve<N>." prefix, so concurrent services never share them.
  ServiceMetrics();

  // Updates that touch more than one row or convert their argument; every
  // other update goes straight to its handle (rejected.inc(),
  // latency.observe_seconds(s)).
  void record_hit() {
    requests.inc();
    cache_hits.inc();
  }
  void record_miss() {
    requests.inc();
    cache_misses.inc();
  }
  /// A miss answered by the fallback; `by_watermark` marks admission-
  /// control sheds (vs. degraded answers after a full-queue retry budget).
  void record_degraded(bool by_watermark) {
    degraded.inc();
    if (by_watermark) shed.inc();
  }
  /// Which op a request asked for (recorded once per submit, hit or miss).
  void record_op(SpOp op) {
    (op == SpOp::kSpmv ? spmv_requests : spmm_requests).inc();
  }
  void record_queue_depth(std::size_t depth) {
    queue_depth.set(static_cast<double>(depth));
  }
  /// The version the service booted on (swaps then only move it forward).
  void record_model_version(std::uint64_t version) {
    model_version.update_max(static_cast<double>(version));
  }
  /// A worker adopted a newly-published model version (RCU hot swap).
  void record_model_swap(std::uint64_t new_version) {
    model_swaps.inc();
    record_model_version(new_version);
  }
  void record_batch(std::size_t size);

  /// `entries` is supplied by the owner (the cache knows its size); it is
  /// also published to the registry's `<prefix>cache_entries` gauge.
  ServiceStats snapshot(std::uint64_t entries = 0) const;

  /// The registry this block reports into and its metric-name prefix —
  /// `registry().snapshot(prefix())` is the untyped view of this block.
  obs::MetricsRegistry& registry() const {
    return obs::MetricsRegistry::global();
  }
  const std::string& prefix() const { return prefix_; }

 private:
  std::string prefix_;  // precedes the handles: registering them reads it

 public:
  // One handle per table row, named like its ServiceStats member.
  DNNSPMV_SERVICE_METRICS(DNNSPMV_OBS_HANDLE)
};

}  // namespace dnnspmv
