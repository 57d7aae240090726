// Tests of the benchmark's own arithmetic (src/bench_math.hpp).
#include "bench_math.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(BenchPercentile, P99NeedsTenSamplesBeyond) {
  // 1000 samples: rank 990, exactly ten beyond.
  const Percentile p = percentile(one_to(1000), 0, 0.99);
  EXPECT_EQ(p.samples, 1000);
  EXPECT_EQ(p.beyond, 10);
  EXPECT_TRUE(p.reportable);
  EXPECT_DOUBLE_EQ(p.value, 990.0);
  // 999 samples: rank 990 (ceil 989.01), nine beyond — not reportable.
  const Percentile q = percentile(one_to(999), 0, 0.99);
  EXPECT_EQ(q.beyond, 9);
  EXPECT_FALSE(q.reportable);
}

TEST(BenchPercentile, FailuresCountAsInfinity) {
  // 990 answers at 1..990 plus ten failures: p99 is still an answer, but
  // the failures rank above it.
  const Percentile p = percentile(one_to(990), 10, 0.99);
  EXPECT_EQ(p.samples, 1000);
  EXPECT_DOUBLE_EQ(p.value, 990.0);
  EXPECT_TRUE(p.reportable);
  // Eleven failures push the p99 rank onto a failure: +inf, unreportable.
  const Percentile q = percentile(one_to(989), 11, 0.99);
  EXPECT_TRUE(std::isinf(q.value));
  EXPECT_FALSE(q.reportable);
  // A median with half the requests failed is +inf too.
  EXPECT_TRUE(std::isinf(percentile(one_to(10), 11, 0.5).value));
}

TEST(BenchPercentile, MedianOfOddAndEven) {
  EXPECT_DOUBLE_EQ(percentile(one_to(5), 0, 0.5).value, 3.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_TRUE(std::isnan(median({})));
}

TEST(BenchRegret, GeometricMeanScoresRefusedPicksAsCsr) {
  // Candidates {COO, CSR, DIA, ELL}; DIA refuses (inf).
  const std::vector<double> times = {4.0, 2.0, kInf, 1.0};
  const int csr = 1;
  const PickScore best = score_pick(times, 3, csr);
  EXPECT_DOUBLE_EQ(best.ratio, 1.0);
  EXPECT_FALSE(best.fell_back);
  const PickScore refused = score_pick(times, 2, csr);
  EXPECT_TRUE(refused.fell_back);
  EXPECT_DOUBLE_EQ(refused.ratio, 2.0);  // ran as CSR: 2.0 / 1.0
  const PickScore coo = score_pick(times, 0, csr);
  EXPECT_DOUBLE_EQ(coo.ratio, 4.0);

  GeoMean g;
  g.add(best.ratio);
  g.add(refused.ratio);
  g.add(coo.ratio);
  EXPECT_EQ(g.count(), 3);
  EXPECT_NEAR(g.value(), 2.0, 1e-12);  // cbrt(1 * 2 * 4)
  GeoMean h;
  h.add(2.0, 3);
  g.merge(h);
  EXPECT_NEAR(g.value(), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(GeoMean{}.value(), 1.0);
  // An empty matrix can model to zero time: no regret, never NaN.
  EXPECT_DOUBLE_EQ(score_pick({0.0, 3e-9, kInf, kInf}, 0, csr).ratio, 1.0);
  EXPECT_DOUBLE_EQ(score_pick({0.0, 3e-9, kInf, kInf}, 2, csr).ratio, 1.0);
}

TEST(BenchPayoff, PayoffAndBreakevenWithJobsThatNeverBreakEven) {
  // Job A: selection 10 + conversion 10, saves 1 per iteration → 20 iters.
  // Job B: picked format slower than CSR → never breaks even.
  // Job C: picked CSR itself (no saving) → never breaks even.
  const std::vector<JobCost> jobs = {
      {.select_s = 10, .convert_s = 10, .iter_s = 1, .csr_iter_s = 2,
       .iters = 100},
      {.select_s = 5, .convert_s = 5, .iter_s = 3, .csr_iter_s = 2,
       .iters = 100},
      {.select_s = 4, .convert_s = 0, .iter_s = 2, .csr_iter_s = 2,
       .iters = 100},
  };
  EXPECT_DOUBLE_EQ(breakeven_iters(jobs[0]), 20.0);
  EXPECT_TRUE(std::isinf(breakeven_iters(jobs[1])));
  EXPECT_TRUE(std::isinf(breakeven_iters(jobs[2])));
  // CSR: 3 * 100 * 2 = 600. Selected: (20 + 100) + (10 + 300) + (4 + 200).
  EXPECT_DOUBLE_EQ(payoff_vs_csr(jobs), 600.0 / 634.0);
  const Breakeven b = summarize_breakeven(jobs);
  EXPECT_DOUBLE_EQ(b.median_iters, 20.0);
  EXPECT_NEAR(b.never_frac, 2.0 / 3.0, 1e-12);
  const Breakeven none = summarize_breakeven({jobs[1]});
  EXPECT_TRUE(std::isinf(none.median_iters));
  EXPECT_DOUBLE_EQ(none.never_frac, 1.0);
}

TEST(BenchTally, FailedFracCountsEveryFailureKindOnce) {
  EXPECT_TRUE(in_range(0, 4));
  EXPECT_TRUE(in_range(3, 4));
  EXPECT_FALSE(in_range(4, 4));
  EXPECT_FALSE(in_range(-1, 4));
  Tally t;
  EXPECT_TRUE(t.record(false, true, true));    // answered
  t.record_pick(false);
  EXPECT_TRUE(t.record(false, true, true));    // answered, two picks:
  t.record_pick(true);                         // one refused (runs as CSR)
  t.record_pick(false);
  EXPECT_FALSE(t.record(true, true, true));    // exception
  EXPECT_FALSE(t.record(false, false, true));  // a pick out of range
  EXPECT_FALSE(t.record(false, true, false));  // output != CSR
  EXPECT_FALSE(t.record(true, false, false));  // several at once: once
  EXPECT_EQ(t.attempted, 6);
  EXPECT_EQ(t.failed, 4);
  EXPECT_DOUBLE_EQ(t.failed_frac(), 4.0 / 6.0);
  EXPECT_DOUBLE_EQ(t.fallback_frac(), 1.0 / 3.0);  // 1 of 3 picks
  Tally u;
  u.record(false, true, true);
  t.merge(u);
  EXPECT_DOUBLE_EQ(t.failed_frac(), 4.0 / 7.0);
  EXPECT_DOUBLE_EQ(Tally{}.failed_frac(), 0.0);
  EXPECT_DOUBLE_EQ(Tally{}.fallback_frac(), 0.0);
}

TEST(BenchOutputs, ToleranceAndNan) {
  const double ref[3] = {1.0, -200.0, 3.0};
  const double close[3] = {1.0, -200.0 + 1e-9, 3.0};
  const double off[3] = {1.0, -199.0, 3.0};
  const double nan[3] = {1.0, std::nan(""), 3.0};
  EXPECT_TRUE(outputs_match(close, ref, 3, 1e-10));
  EXPECT_FALSE(outputs_match(off, ref, 3, 1e-10));
  EXPECT_FALSE(outputs_match(nan, ref, 3, 1e-10));
}

}  // namespace
}  // namespace perfbench
