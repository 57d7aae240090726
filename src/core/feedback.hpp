// FeedbackCollector — bounded lock-free MPSC stream of measured outcomes.
//
// The feedback half of the online-learning loop (DESIGN.md §12): the
// serving path that measures real SpMV runs — SelectionService's sampled
// miss path — publishes
//
//   FeedbackSample { fingerprint, CNN representation, measured per-format
//                    SpMV seconds }
//
// into a fixed-capacity ring; the OnlineTrainer (core/online.hpp) is the
// single consumer, draining samples into its replay buffer and deriving
// labels from the measured times (argmin — perf/labels.hpp).
//
// Producer-side contract, in order:
//   1. offer()   — the sampling gate. One relaxed fetch_add; returns true
//                  for every sample_every-th call. Callers skip the whole
//                  probe (conversions + timed SpMVs) when it says no, so
//                  the steady-state cost of feedback on the hot path is
//                  one atomic increment.
//   2. publish() — hands a built sample to the ring. Lock-free bounded
//                  MPSC (Vyukov-style sequence ring): full buffer means
//                  the sample is DROPPED and counted, never blocks — the
//                  serving path's latency is worth more than any one
//                  training sample.
//
// Observability (obs registry, "feedback<N>." prefix): feedback_offered /
// feedback_sampled / feedback_published / feedback_dropped counters and a
// feedback_depth gauge, so the sampling rate and backpressure are visible
// next to the serve metrics.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "tensor/tensor.hpp"

namespace dnnspmv {

/// One measured outcome from served traffic. `inputs` is the CNN-ready
/// representation (same tensors the miss path enqueued); `format_times`
/// is seconds per candidate format, +inf where the format refused the
/// matrix — exactly the labels.hpp convention, so best_format_index()
/// applies directly.
struct FeedbackSample {
  std::uint64_t fingerprint = 0;
  std::vector<Tensor> inputs;
  std::vector<double> format_times;
};

struct FeedbackOptions {
  /// Ring capacity (rounded up to a power of two, minimum 2).
  std::size_t capacity = 1024;
  /// offer() returns true once per this many calls (1 = sample everything;
  /// <= 0 is clamped to 1).
  std::int64_t sample_every = 16;
  /// Repetitions per format for the measure_format_times probe
  /// (perf/platform.hpp).
  int measure_reps = 3;
};

class FeedbackCollector {
 public:
  explicit FeedbackCollector(FeedbackOptions opts = {});

  FeedbackCollector(const FeedbackCollector&) = delete;
  FeedbackCollector& operator=(const FeedbackCollector&) = delete;

  /// Sampling gate: true when the caller should measure and publish this
  /// request. Thread-safe, wait-free, one relaxed fetch_add.
  bool offer();

  /// Publishes a sample (any producer thread). Returns false — and counts
  /// a drop — when the ring is full or a slot race was lost; never blocks.
  bool publish(FeedbackSample&& sample);

  /// Drains up to `max` samples in publish order (appended to `out`).
  /// Single consumer only: at most one thread may be inside drain() at a
  /// time (the OnlineTrainer's loop). Returns the number drained.
  std::size_t drain(std::vector<FeedbackSample>& out,
                    std::size_t max = SIZE_MAX);

  /// Samples currently buffered (approximate under concurrent publish).
  std::size_t approx_depth() const;

  std::size_t capacity() const { return capacity_; }
  const FeedbackOptions& options() const { return opts_; }

  std::uint64_t published() const { return published_.value(); }
  std::uint64_t dropped() const { return dropped_.value(); }

  /// Obs prefix ("feedback<N>.") this collector's instruments live under.
  const std::string& prefix() const { return prefix_; }

 private:
  // Vyukov bounded-queue cell: `seq` encodes the slot's state relative to
  // the enqueue/dequeue cursors (== pos: free to write; == pos+1: ready to
  // read; otherwise a lap behind/ahead).
  struct Cell {
    std::atomic<std::size_t> seq{0};
    FeedbackSample value;
  };

  FeedbackOptions opts_;
  std::size_t capacity_;  // power of two
  std::size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  alignas(64) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::size_t> dequeue_pos_{0};
  alignas(64) std::atomic<std::uint64_t> offers_{0};

  std::string prefix_;
  obs::Counter& offered_;
  obs::Counter& sampled_;
  obs::Counter& published_;
  obs::Counter& dropped_;
  obs::Gauge& depth_;
};

}  // namespace dnnspmv
