// Per-layer replays for the traced run. Where a workload does not call a
// layer's public entry point itself, its per-layer metric comes from
// replaying that entry point on the workload's own matrices. Every replayed
// call is recorded as a span named after the metric it feeds.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench_math.hpp"
#include "core/selector.hpp"
#include "serve/service.hpp"
#include "trace.hpp"

namespace perfbench {

using dnnspmv::Csr;
using dnnspmv::FormatSelector;
using dnnspmv::SpOp;

/// Per-layer values that are not span durations (ratios, rates).
using LayerValues = std::map<std::string, std::vector<double>>;

/// compute_stats, structural_fingerprint, StreamingRepBuilder::build_into
/// and the int8 forward of each head (batch 1, batch `batch`, and both heads
/// over the same representations).
void replay_selection(const FormatSelector& model,
                      const std::vector<const Csr*>& mats, int batch,
                      SpanLog& log);

/// The solve path of each matrix for `op`: selection (AdaptiveSpmv's
/// prediction time for SpMV, predict() for SpMM), conversion to the pick,
/// iterations in the pick and in CSR. Adds computed-bytes rates to
/// `values` and one JobCost per matrix (N = `iters`) to `jobs`.
void replay_solve(const FormatSelector& model,
                  const std::vector<const Csr*>& mats, SpOp op, int iters,
                  SpanLog& log, LayerValues& values,
                  std::vector<JobCost>& jobs);

/// Serving counters over an interval (one reading minus another).
struct ServeCounters {
  double requests = 0, hits = 0, misses = 0, degraded = 0, batches = 0,
         batched = 0, swaps = 0, wait_sum = 0, wait_count = 0;

  /// What `s` exports through snapshot() and its metrics() histograms.
  static ServeCounters of(const dnnspmv::SelectionService& s);
  ServeCounters operator+(const ServeCounters& o) const;
  ServeCounters operator-(const ServeCounters& o) const;
  double hit_rate() const {
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
  }
  double batch_mean() const { return batches > 0 ? batched / batches : 0.0; }
  double queue_wait_us() const {
    return wait_count > 0 ? wait_sum / wait_count : 0.0;
  }
};

/// One miss per matrix through a private single-worker SelectionService.
struct MissReplay {
  std::vector<double> latency_us;
  ServeCounters serve;
};
MissReplay replay_misses(const FormatSelector& model,
                         const std::vector<const Csr*>& mats);

/// The online loop once, on private objects: the default feedback probe
/// (measure_format_times, spans serve.feedback_probe_us) on every matrix,
/// published to a FeedbackCollector; one OnlineTrainer::train_once round
/// (span core.train_round_us) on a private registry; a private service
/// then adopts the published version.
struct OnlineReplay {
  double versions_published = 0.0;
  double model_swaps = 0.0;
  double feedback_dropped_frac = 0.0;
};
OnlineReplay replay_online(const FormatSelector& model,
                           const std::vector<const Csr*>& mats, SpanLog& log);

/// Bytes one SpMV/SpMM iteration touches, computed from array sizes: the
/// stored matrix plus the dense operand and result.
double computed_bytes(std::int64_t matrix_bytes, const Csr& a, int k);

}  // namespace perfbench
