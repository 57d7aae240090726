// Service metrics as a typed view over the obs registry.
//
// The counters live in obs::MetricsRegistry (by default the process-global
// one) under a per-service prefix ("serve0.", "serve1.", …), so one
// registry export shows every live service next to the nn/sparse
// instrumentation. ServiceMetrics resolves its handles once at
// construction, so recording is one relaxed atomic per instrument, and
// snapshot() produces the plain ServiceStats value, which matches the
// registry export for the same run because both read the same atomics.
// Histograms come out as obs::Histogram::Snapshot, in µs.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "sparse/format.hpp"

namespace dnnspmv {

/// Plain-value snapshot of a ServiceMetrics block.
struct ServiceStats {
  std::uint64_t requests = 0;        // predictions asked of the service
  std::uint64_t cache_hits = 0;      // answered from the LRU cache
  std::uint64_t cache_misses = 0;    // went through the batcher
  std::uint64_t rejected = 0;        // failed (queue closed / shutdown)
  std::uint64_t deadline_expired = 0;  // expired while queued, failed at pop
  std::uint64_t shed = 0;            // misses shed by admission control
  std::uint64_t degraded = 0;        // answered by the FallbackSelector
  std::uint64_t retries = 0;         // backoff retries of full-queue pushes
  std::uint64_t fp_reused = 0;       // requests whose caller-supplied
                                     // fingerprint skipped the O(nnz) rehash
  std::uint64_t spmv_requests = 0;   // per-op split of `requests`, so a
  std::uint64_t spmm_requests = 0;   // hit-rate regression on one op is
                                     // visible instead of blended
  std::uint64_t batches = 0;         // forward passes executed
  std::uint64_t batched_samples = 0; // requests summed over those batches
  std::uint64_t max_batch = 0;       // largest coalesced batch seen
  std::uint64_t cache_entries = 0;   // live cache entries at snapshot time
  std::uint64_t model_version = 0;   // registry version the workers serve
  std::uint64_t model_swaps = 0;     // hot swaps adopted since start
  // End-to-end time of each blocking predict(), from submit to answer.
  obs::Histogram::Snapshot latency;
  // Miss-path representation-build time (the serve.prepare_inputs work).
  // Counts one observation per admitted miss that built inputs in the
  // client thread.
  obs::Histogram::Snapshot rep_build;

  /// Fraction of requests that received a prediction (from the cache, the
  /// CNN, or the degraded path) rather than a deadline failure. Rejected
  /// requests never make it into `requests`, so they are not counted here.
  double availability() const {
    return requests == 0 ? 1.0
                         : static_cast<double>(requests - deadline_expired) /
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
  /// Registers this block's instruments in `reg` (null → the process
  /// global registry) under a fresh "serve<N>." prefix, so concurrent
  /// services never share counters.
  explicit ServiceMetrics(obs::MetricsRegistry* reg = nullptr);

  void record_hit() {
    requests_.inc();
    cache_hits_.inc();
  }
  void record_miss() {
    requests_.inc();
    cache_misses_.inc();
  }
  void record_rejected() { rejected_.inc(); }
  void record_deadline_expired(std::uint64_t n = 1) {
    deadline_expired_.inc(n);
  }
  /// A miss answered by the fallback; `by_watermark` marks admission-
  /// control sheds (vs. degraded answers after a full-queue retry budget).
  void record_degraded(bool by_watermark) {
    degraded_.inc();
    if (by_watermark) shed_.inc();
  }
  void record_retry() { retries_.inc(); }
  /// A submit whose stats+fingerprint arrived precomputed (router path).
  void record_fp_reused() { fp_reused_.inc(); }
  /// Which op a request asked for (recorded once per submit, hit or miss).
  void record_op(SpOp op) {
    (op == SpOp::kSpmv ? spmv_requests_ : spmm_requests_).inc();
  }
  void record_queue_depth(std::size_t depth) {
    queue_depth_.set(static_cast<double>(depth));
  }
  /// A worker adopted a newly-published model version (RCU hot swap).
  void record_model_swap(std::uint64_t new_version) {
    swap_total_.inc();
    model_version_.update_max(static_cast<double>(new_version));
  }
  /// The version the service booted on (swaps then only move it forward).
  void record_model_version(std::uint64_t version) {
    model_version_.update_max(static_cast<double>(version));
  }

  void record_batch(std::size_t batch_size);
  void record_latency(double seconds) { latency_.observe_seconds(seconds); }
  /// Time the client thread spent building CNN representations for one
  /// admitted miss (the streaming builder's build_into call).
  void record_rep_build(double seconds) {
    rep_build_.observe_seconds(seconds);
  }
  /// Time a request spent queued before a worker popped it.
  void record_queue_wait(double seconds) {
    queue_wait_.observe_seconds(seconds);
  }

  /// `cache_entries` is supplied by the owner (the cache knows its size);
  /// it is also published to the registry's `<prefix>cache_entries` gauge.
  ServiceStats snapshot(std::uint64_t cache_entries = 0) const;

  /// The registry this block reports into and its metric-name prefix —
  /// `registry().snapshot(prefix())` is the untyped view of this block.
  obs::MetricsRegistry& registry() const { return *reg_; }
  const std::string& prefix() const { return prefix_; }

 private:
  obs::MetricsRegistry* reg_;
  std::string prefix_;
  obs::Counter& requests_;
  obs::Counter& cache_hits_;
  obs::Counter& cache_misses_;
  obs::Counter& rejected_;
  obs::Counter& deadline_expired_;
  obs::Counter& shed_;
  obs::Counter& degraded_;
  obs::Counter& retries_;
  obs::Counter& fp_reused_;
  obs::Counter& spmv_requests_;
  obs::Counter& spmm_requests_;
  obs::Counter& batches_;
  obs::Counter& batched_samples_;
  obs::Counter& swap_total_;
  obs::Gauge& model_version_;
  obs::Gauge& max_batch_;
  obs::Gauge& cache_entries_;
  obs::Gauge& queue_depth_;
  obs::Histogram& latency_;
  obs::Histogram& queue_wait_;
  obs::Histogram& batch_size_;
  obs::Histogram& rep_build_;
};

}  // namespace dnnspmv
