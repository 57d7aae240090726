// The benchmark's own arithmetic: percentiles, regret, payoff and failure
// accounting. Header-only so tests/test_bench_math.cpp checks exactly the
// code the driver runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// One percentile of a latency sample. Failed requests count as +inf, so
/// they sort above every answer and can only raise a percentile.
struct Percentile {
  double value = kInf;
  std::int64_t samples = 0;  // answered + failed
  std::int64_t beyond = 0;   // samples strictly ranked above the percentile
  bool reportable = false;   // at least `min_beyond` samples lie beyond it
};

/// Nearest-rank percentile q in (0, 1]: the ceil(q*n)-th smallest sample.
/// Reportable only when at least `min_beyond` samples rank above it (a p99
/// needs n >= 1000 for ten samples beyond) and the value is finite.
inline Percentile percentile(std::vector<double> answered,
                             std::int64_t failures, double q,
                             std::int64_t min_beyond = 10) {
  Percentile p;
  p.samples = static_cast<std::int64_t>(answered.size()) + failures;
  if (p.samples == 0) return p;
  auto rank = static_cast<std::int64_t>(
      std::ceil(q * static_cast<double>(p.samples) - 1e-9));
  rank = std::clamp<std::int64_t>(rank, 1, p.samples);
  p.beyond = p.samples - rank;
  const auto answered_n = static_cast<std::int64_t>(answered.size());
  if (rank <= answered_n) {
    std::nth_element(answered.begin(), answered.begin() + (rank - 1),
                     answered.end());
    p.value = answered[static_cast<std::size_t>(rank - 1)];
  }
  p.reportable = p.beyond >= min_beyond && std::isfinite(p.value);
  return p;
}

/// Plain median of a non-empty sample (NaN when empty).
inline double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  return 0.5 * (hi + *std::max_element(v.begin(), v.begin() +
                                       static_cast<std::ptrdiff_t>(mid)));
}

/// Regret of one pick: t(format actually run) / t(best candidate), where a
/// pick the matrix refuses (time +inf) runs — and is scored — as CSR. A
/// matrix whose best time is 0 (no work at all) scores 1 for every pick.
struct PickScore {
  double ratio = 1.0;
  bool fell_back = false;
};

inline PickScore score_pick(const std::vector<double>& times, int pick,
                            int csr_index) {
  double best = kInf;
  for (double t : times) best = std::min(best, t);
  PickScore s;
  double ran = times[static_cast<std::size_t>(pick)];
  if (!std::isfinite(ran)) {
    s.fell_back = true;
    ran = times[static_cast<std::size_t>(csr_index)];
  }
  s.ratio = best > 0.0 ? ran / best : 1.0;
  return s;
}

/// Geometric mean of ratios, accumulated in log space.
class GeoMean {
 public:
  void add(double ratio, std::int64_t times = 1) {
    log_sum_ += std::log(ratio) * static_cast<double>(times);
    n_ += times;
  }
  void merge(const GeoMean& o) {
    log_sum_ += o.log_sum_;
    n_ += o.n_;
  }
  std::int64_t count() const { return n_; }
  double value() const {
    return n_ == 0 ? 1.0 : std::exp(log_sum_ / static_cast<double>(n_));
  }

 private:
  double log_sum_ = 0.0;
  std::int64_t n_ = 0;
};

/// One solve-payoff job's cost split: what selecting cost once, and what
/// one iteration costs in the chosen format and in always-CSR.
struct JobCost {
  double select_s = 0.0;
  double convert_s = 0.0;
  double iter_s = 0.0;      // chosen format, per iteration
  double csr_iter_s = 0.0;  // always-CSR, per iteration
  std::int64_t iters = 0;   // N iterations the job ran
};

/// Iterations after which selecting + converting has paid for itself:
/// (select + convert) / (csr_iter - iter). +inf when the chosen format is
/// not faster than CSR — the job never breaks even.
inline double breakeven_iters(const JobCost& j) {
  const double saving = j.csr_iter_s - j.iter_s;
  if (!(saving > 0.0)) return kInf;
  return (j.select_s + j.convert_s) / saving;
}

/// Sum of always-CSR job time over sum of selected job time, same N.
inline double payoff_vs_csr(const std::vector<JobCost>& jobs) {
  double csr = 0.0, selected = 0.0;
  for (const JobCost& j : jobs) {
    const auto n = static_cast<double>(j.iters);
    csr += n * j.csr_iter_s;
    selected += j.select_s + j.convert_s + n * j.iter_s;
  }
  return selected > 0.0 ? csr / selected : 0.0;
}

struct Breakeven {
  double median_iters = kInf;  // over the jobs that do break even
  double never_frac = 0.0;     // share of jobs that never break even
};

inline Breakeven summarize_breakeven(const std::vector<JobCost>& jobs) {
  Breakeven b;
  std::vector<double> finite;
  for (const JobCost& j : jobs) {
    const double n = breakeven_iters(j);
    if (std::isfinite(n)) finite.push_back(n);
  }
  if (!finite.empty()) b.median_iters = median(finite);
  if (!jobs.empty())
    b.never_frac = 1.0 - static_cast<double>(finite.size()) /
                             static_cast<double>(jobs.size());
  return b;
}

/// Request accounting. A request (a solve-payoff job) fails on an
/// exception, a pick outside the candidate range, or an output that differs
/// from CSR's. A pick the matrix refuses is answered — it runs as CSR — and
/// counted as a fallback, never as a failure.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t picks = 0;      // picks of answered requests
  std::int64_t fallbacks = 0;  // of those, refused by their matrix

  /// Records one request; returns whether it counts as answered.
  bool record(bool threw, bool picks_in_range, bool output_ok) {
    ++attempted;
    const bool answered = !threw && picks_in_range && output_ok;
    if (!answered) ++failed;
    return answered;
  }
  /// Records one pick of an answered request.
  void record_pick(bool refused) {
    ++picks;
    if (refused) ++fallbacks;
  }
  void merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    picks += o.picks;
    fallbacks += o.fallbacks;
  }
  double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
  double fallback_frac() const {
    return picks == 0 ? 0.0
                      : static_cast<double>(fallbacks) /
                            static_cast<double>(picks);
  }
};

inline bool in_range(int index, int num_candidates) {
  return index >= 0 && index < num_candidates;
}

/// Relative agreement of a solve's output with the CSR reference:
/// max |y - ref| <= tol * max(1, max |ref|).
inline bool outputs_match(const double* y, const double* ref, std::size_t n,
                          double tol) {
  double scale = 1.0, err = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = std::abs(y[i] - ref[i]);
    if (std::isnan(d)) return false;
    scale = std::max(scale, std::abs(ref[i]));
    err = std::max(err, d);
  }
  return err <= tol * scale;
}

}  // namespace perfbench
