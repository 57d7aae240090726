// serve/router: hash-ring shard balance, affinity planning, the
// fingerprint-reuse submit path, hedged re-dispatch (first-wins,
// exactly-once), straggler tail-latency recovery, and shutdown draining.
#include "serve/router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "perf/labels.hpp"
#include "serve/fingerprint.hpp"

namespace dnnspmv {
namespace {

// One trained selector + corpus shared by every test in this binary
// (training dominates the cost; router construction clones are cheap).
struct RouterPipeline {
  std::vector<CorpusEntry> corpus;
  std::unique_ptr<Platform> platform;
  FormatSelector selector;

  RouterPipeline() {
    CorpusSpec spec;
    spec.count = 80;
    spec.min_dim = 48;
    spec.max_dim = 160;
    spec.seed = 23;
    corpus = build_corpus(spec);
    platform = make_analytic_cpu(intel_xeon_params());
    const auto labeled = collect_labels(corpus, *platform);

    SelectorOptions opts;
    opts.mode = RepMode::kHistogram;
    opts.rep_rows = 16;
    opts.rep_bins = 8;
    opts.train.epochs = 5;
    opts.train.batch = 16;
    opts.train.lr = 2e-3;
    selector = FormatSelector(opts);
    selector.fit(labeled, platform->formats());
  }
};

RouterPipeline& pipeline() {
  static RouterPipeline p;
  return p;
}

// --------------------------------------------------------------- affinity

TEST(Affinity, ParseCpulistHandlesRangesSinglesAndJunk) {
  EXPECT_EQ(affinity::parse_cpulist("0-3,8,10-11"),
            (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  EXPECT_EQ(affinity::parse_cpulist("5"), (std::vector<int>{5}));
  EXPECT_EQ(affinity::parse_cpulist("2,2,1"), (std::vector<int>{1, 2}));
  EXPECT_TRUE(affinity::parse_cpulist("").empty());
  // Malformed chunks are skipped, valid ones survive.
  EXPECT_EQ(affinity::parse_cpulist("x,3-1,4"), (std::vector<int>{4}));
}

TEST(Affinity, TopologyIsNeverEmptyAndPlansCoverEveryGroup) {
  const affinity::CpuTopology topo = affinity::detect_topology();
  ASSERT_GE(topo.num_nodes(), 1);
  ASSERT_GE(topo.num_cpus(), 1);
  for (const auto& node : topo.node_cpus) EXPECT_FALSE(node.empty());

  for (int groups : {1, 2, 4, 8, 64}) {
    const auto plan = affinity::plan_groups(topo, groups);
    ASSERT_EQ(static_cast<int>(plan.size()), groups);
    for (const auto& g : plan) {
      EXPECT_FALSE(g.cpus.empty());
      EXPECT_GE(g.node, 0);
      EXPECT_LT(g.node, topo.num_nodes());
    }
  }
  // With at least as many CPUs as groups, the groups are disjoint.
  const int n = topo.num_cpus();
  const auto plan = affinity::plan_groups(topo, std::max(1, n));
  std::set<int> seen;
  std::size_t total = 0;
  for (const auto& g : plan) {
    seen.insert(g.cpus.begin(), g.cpus.end());
    total += g.cpus.size();
  }
  EXPECT_EQ(seen.size(), total);
}

TEST(Affinity, PinCurrentThreadIsBestEffort) {
  const affinity::CpuTopology topo = affinity::detect_topology();
  EXPECT_FALSE(affinity::pin_current_thread({}));
  // Pinning to a real allowed CPU must succeed on Linux; the thread should
  // then report running on it.
  const int cpu = topo.node_cpus[0][0];
#if defined(__linux__)
  EXPECT_TRUE(affinity::pin_current_thread({cpu}));
  EXPECT_EQ(affinity::current_cpu(), cpu);
#else
  (void)cpu;
#endif
}

// --------------------------------------------------------------- HashRing

TEST(RouterRing, BalancesShardsAcrossRandomFingerprints) {
  const int replicas = 4;
  const int kKeys = 10000;
  HashRing ring(replicas);
  Rng rng(7);
  std::vector<int> hits(replicas, 0);
  for (int i = 0; i < kKeys; ++i) {
    const int r = ring.primary(rng.next_u64());
    ASSERT_GE(r, 0);
    ASSERT_LT(r, replicas);
    ++hits[r];
  }
  // Chi-square goodness of fit against the uniform expectation. With 3
  // degrees of freedom the 99.9th percentile is 16.27; vnode placement is
  // deterministic, so this either always passes or the ring is skewed.
  const double expected = static_cast<double>(kKeys) / replicas;
  double chi2 = 0.0;
  for (int r = 0; r < replicas; ++r) {
    const double d = hits[r] - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 16.27) << "shard hits: " << hits[0] << "," << hits[1]
                         << "," << hits[2] << "," << hits[3];
  for (int r = 0; r < replicas; ++r) EXPECT_GT(hits[r], 0);
}

TEST(RouterRing, SiblingIsDistinctStableAndDeterministic) {
  HashRing ring(3);
  HashRing twin(3);
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t fp = rng.next_u64();
    const int p = ring.primary(fp);
    const int s = ring.sibling(fp);
    EXPECT_NE(p, s);
    // Same fingerprint, same answer — across calls and across rings built
    // with the same shape (clients and router must agree).
    EXPECT_EQ(p, ring.primary(fp));
    EXPECT_EQ(p, twin.primary(fp));
    EXPECT_EQ(s, twin.sibling(fp));
  }
  // Degenerate single-replica ring: sibling falls back to the primary.
  HashRing solo(1);
  EXPECT_EQ(solo.primary(42u), 0);
  EXPECT_EQ(solo.sibling(42u), 0);
}

// ------------------------------------------------- service router hooks

TEST(RouterService, SubmitFingerprintedSkipsRehashAndRetainsInputs) {
  auto& p = pipeline();
  ModelRegistry registry(p.selector.clone());
  SelectionService svc(registry);
  const Csr& a = p.corpus[0].matrix;
  const MatrixStats st = compute_stats(a);
  const std::uint64_t fp = structural_fingerprint(st);

  std::vector<Tensor> retained;
  auto fut = svc.submit(
      {.matrix = &a, .stats = st, .fingerprint = fp, .retain_inputs = &retained});
  const std::int32_t idx = fut.get();
  EXPECT_EQ(idx, p.selector.predict_index(a));
  // Miss path: the enqueued CNN inputs were copied out for a hedge.
  EXPECT_FALSE(retained.empty());
  ServiceStats s = svc.snapshot();
  EXPECT_EQ(s.fp_reused, 1u);

  // Second submit of the same key is a cache hit: answered inline, nothing
  // retained, and the callback fires with the cache source.
  retained.clear();
  std::atomic<int> done_calls{0};
  AnswerSource seen_src = AnswerSource::kError;
  auto fut2 = svc.submit(
      {.matrix = &a,
       .stats = st,
       .fingerprint = fp,
       .done =
           [&](std::int32_t got, AnswerSource src, std::exception_ptr err) {
             ++done_calls;
             seen_src = src;
             EXPECT_EQ(got, idx);
             EXPECT_FALSE(err);
           },
       .retain_inputs = &retained});
  EXPECT_EQ(fut2.get(), idx);
  EXPECT_TRUE(retained.empty());
  EXPECT_EQ(done_calls.load(), 1);
  EXPECT_EQ(seen_src, AnswerSource::kCache);
  s = svc.snapshot();
  EXPECT_EQ(s.fp_reused, 2u);
  EXPECT_EQ(s.cache_hits, 1u);
}

TEST(RouterService, SubmitPreparedServesCachesAndFiresCallback) {
  auto& p = pipeline();
  ModelRegistry registry(p.selector.clone());
  SelectionService svc(registry);
  const Csr& a = p.corpus[1].matrix;
  const MatrixStats st = compute_stats(a);
  const std::uint64_t fp = structural_fingerprint(st);
  const std::int32_t want = p.selector.predict_index(a);

  std::atomic<int> done_calls{0};
  auto fut = svc.submit(
      {.stats = st,
       .fingerprint = fp,
       .inputs = p.selector.prepare_inputs(a),
       .done =
           [&](std::int32_t got, AnswerSource src, std::exception_ptr err) {
             ++done_calls;
             EXPECT_EQ(got, want);
             EXPECT_EQ(src, AnswerSource::kCnn);
             EXPECT_FALSE(err);
           }});
  EXPECT_EQ(fut.get(), want);
  // The future resolves alongside the callback, not after it — wait for
  // the callback before asserting it fired.
  for (int spin = 0; spin < 2000 && done_calls.load() == 0; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(done_calls.load(), 1);
  // The answer landed in this replica's cache under the handed-in key.
  EXPECT_EQ(svc.submit({.matrix = &a}).get(), want);
  EXPECT_EQ(svc.snapshot().cache_hits, 1u);
}

// ----------------------------------------------------------------- router

TEST(Router, MatchesDirectPredictionsAndAggregatesStats) {
  auto& p = pipeline();
  RouterOptions opts;
  opts.replicas = 3;
  opts.service.num_workers = 1;
  ModelRegistry registry(p.selector.clone());
  ReplicaRouter router(registry, opts);
  ASSERT_EQ(router.num_replicas(), 3u);
  ASSERT_EQ(router.candidates(), p.selector.candidates());

  const int kN = 24;
  for (int i = 0; i < kN; ++i) {
    const Csr& a = p.corpus[static_cast<std::size_t>(i)].matrix;
    EXPECT_EQ(router.predict_index(a), p.selector.predict_index(a));
  }
  // A hedge can answer a key from its sibling while the primary still
  // works through its queue. Wait until every replica has served each of
  // its misses (and so cached it) before asking again.
  const auto settled = [&] {
    for (const ServiceStats& r : router.snapshot().replica)
      if (r.batched_samples + r.degraded < r.cache_misses) return false;
    return true;
  };
  for (int i = 0; i < 5000 && !settled(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // Same keys again: served from the replicas' caches, same answers.
  for (int i = 0; i < kN; ++i) {
    const Csr& a = p.corpus[static_cast<std::size_t>(i)].matrix;
    EXPECT_EQ(router.predict(a), p.selector.predict(a));
  }

  const RouterStats s = router.snapshot();
  EXPECT_EQ(s.requests, static_cast<std::uint64_t>(2 * kN));
  EXPECT_EQ(s.errors, 0u);
  EXPECT_DOUBLE_EQ(s.availability(), 1.0);
  EXPECT_GE(s.total(&ServiceStats::cache_hits),
            static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.total(&ServiceStats::fp_reused), s.requests + s.hedges);
  EXPECT_EQ(s.replica.size(), 3u);
  // The ring spread the keys: more than one replica saw traffic.
  int active = 0;
  for (const ServiceStats& r : s.replica)
    if (r.cache_hits + r.cache_misses > 0) ++active;
  EXPECT_GE(active, 2);
}

TEST(Router, PlacementCoversReplicasAndCacheIsDivided) {
  auto& p = pipeline();
  RouterOptions opts;
  opts.replicas = 2;
  opts.service.cache_capacity = 1024;
  ModelRegistry registry(p.selector.clone());
  ReplicaRouter router(registry, opts);
  ASSERT_EQ(router.placement().size(), 2u);
  for (const affinity::CpuGroup& g : router.placement())
    EXPECT_FALSE(g.cpus.empty());
  EXPECT_EQ(router.replica(0).options().cache_capacity, 512u);
  EXPECT_EQ(router.replica(0).options().pin_cpus,
            router.placement()[0].cpus);
  EXPECT_EQ(router.replica(1).options().pin_cpus,
            router.placement()[1].cpus);

  RouterOptions unpinned = opts;
  unpinned.pin_workers = false;
  ReplicaRouter loose(registry, unpinned);
  EXPECT_TRUE(loose.placement().empty());
  EXPECT_TRUE(loose.replica(0).options().pin_cpus.empty());
  EXPECT_EQ(loose.replica(1).options().cache_capacity, 512u);
}

TEST(RouterHedge, ResolvesExactlyOnceUnderForcedRace) {
  auto& p = pipeline();
  // Both replicas drag every forward by 2 ms, so no primary can answer
  // before the 1 µs hedge budget: every miss is hedged and both replicas
  // race to resolve it — the strongest exactly-once workout available.
  fault::Injector slow_all;
  fault::Plan drag;
  drag.delay_prob = 1.0;
  drag.delay_us = 2'000;
  slow_all.configure(fault::Site::kForward, drag);

  RouterOptions opts;
  opts.replicas = 2;
  opts.hedge_fixed_us = 1;  // hedge virtually every miss: a forced race
  opts.service.num_workers = 1;
  opts.pin_workers = false;
  opts.injectors = {&slow_all, &slow_all};
  ModelRegistry registry(p.selector.clone());
  ReplicaRouter router(registry, opts);

  const int kN = 20;
  std::vector<std::future<std::int32_t>> futs;
  futs.reserve(kN);
  for (int i = 0; i < kN; ++i)
    futs.push_back(router.submit(p.corpus[static_cast<std::size_t>(i)].matrix));
  for (int i = 0; i < kN; ++i) {
    // get() on a promise that was resolved twice would have aborted the
    // process long before this; each future yields exactly one answer.
    const std::int32_t idx = futs[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(idx, p.selector.predict_index(
                       p.corpus[static_cast<std::size_t>(i)].matrix));
  }
  router.shutdown();
  const RouterStats s = router.snapshot();
  EXPECT_EQ(s.requests, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.errors, 0u);
  EXPECT_GT(s.hedges, 0u);
  EXPECT_LE(s.hedge_won, s.hedges);
  EXPECT_EQ(s.hedge_budget_us, 1u);
}

TEST(RouterHedge, AdaptiveBudgetLearnsFromCnnWaits) {
  auto& p = pipeline();
  // Every forward on both replicas takes 3 ms, so every CNN wait lands in
  // the [2048, 4096) µs bucket or above. With no fixed budget the router
  // hedges at the 500 µs floor until 32 CNN answers are in, then moves the
  // budget to the 0.95 quantile of its wait histogram (clamped to 100 ms).
  fault::Injector slow_all;
  fault::Plan drag;
  drag.delay_prob = 1.0;
  drag.delay_us = 3'000;
  slow_all.configure(fault::Site::kForward, drag);

  RouterOptions opts;
  opts.replicas = 2;
  opts.service.num_workers = 1;
  opts.pin_workers = false;
  opts.injectors = {&slow_all, &slow_all};
  ModelRegistry registry(p.selector.clone());
  ReplicaRouter router(registry, opts);
  EXPECT_EQ(router.hedge_budget_us(), 500);

  // Distinct keys only: each request misses and a CNN forward answers it
  // (cache hits do not feed the wait histogram).
  std::set<std::uint64_t> keys;
  for (std::size_t i = 0; i < p.corpus.size() && keys.size() < 40; ++i) {
    const Csr& a = p.corpus[i].matrix;
    if (!keys.insert(structural_fingerprint(a)).second) continue;
    EXPECT_EQ(router.predict_index(a), p.selector.predict_index(a));
  }
  ASSERT_GE(keys.size(), 32u);
  // shutdown() joins the replicas' workers, which run the completions that
  // refresh the budget, so the last refresh is visible afterwards.
  router.shutdown();
  EXPECT_EQ(router.snapshot().total(&ServiceStats::degraded), 0u);
  EXPECT_GE(router.hedge_budget_us(), 4096);
  EXPECT_LE(router.hedge_budget_us(), 100'000);
}

TEST(Router, StragglerHedgingCutsTailLatency) {
  auto& p = pipeline();

  // Replica 0 becomes a scripted straggler: every CNN forward on it sleeps
  // 60 ms. Keys whose primary is replica 0 only resolve quickly if the
  // hedge re-dispatches them to healthy replica 1.
  fault::Plan slow;
  slow.delay_prob = 1.0;
  slow.delay_us = 60000;

  auto run = [&](bool hedge) {
    fault::Injector straggler;
    straggler.configure(fault::Site::kForward, slow);
    RouterOptions opts;
    opts.replicas = 2;
    opts.hedge = hedge;
    opts.hedge_fixed_us = 2000;
    opts.service.num_workers = 1;
    opts.pin_workers = false;
    opts.injectors = {&straggler, nullptr};
    ModelRegistry registry(p.selector.clone());
    ReplicaRouter router(registry, opts);

    std::vector<double> lat_us;
    for (int i = 0; i < 40; ++i) {
      const Csr& a = p.corpus[static_cast<std::size_t>(i)].matrix;
      Timer t;
      (void)router.predict_index(a);
      lat_us.push_back(t.seconds() * 1e6);
    }
    router.shutdown();
    const RouterStats s = router.snapshot();
    EXPECT_EQ(s.errors, 0u);
    EXPECT_DOUBLE_EQ(s.availability(), 1.0);
    if (hedge) {
      EXPECT_GT(s.hedge_won, 0u);
    }
    std::sort(lat_us.begin(), lat_us.end());
    return lat_us[static_cast<std::size_t>(
        std::floor(0.99 * (lat_us.size() - 1)))];
  };

  const double p99_hedged = run(true);
  const double p99_plain = run(false);
  // Without hedging some request waited out the full injected delay; with
  // it the sibling answered first. The margin must survive sanitizer
  // slowdown and parallel-ctest contention on small hosts, so it proves
  // the mechanism (tail well under the injected delay) without gating on
  // exact scheduler behaviour.
  EXPECT_GE(p99_plain, 60000.0);
  EXPECT_LT(p99_hedged, 0.8 * p99_plain)
      << "hedged p99 " << p99_hedged << "us vs plain " << p99_plain << "us";
}

TEST(Router, ShutdownDrainsInFlightAndRejectsAfter) {
  auto& p = pipeline();
  RouterOptions opts;
  opts.replicas = 2;
  opts.hedge_fixed_us = 500;
  opts.service.num_workers = 1;
  opts.pin_workers = false;
  ModelRegistry registry(p.selector.clone());
  ReplicaRouter router(registry, opts);

  std::vector<std::future<std::int32_t>> futs;
  for (int i = 0; i < 12; ++i)
    futs.push_back(router.submit(p.corpus[static_cast<std::size_t>(i)].matrix));
  router.shutdown();
  // Every in-flight request resolved — with an answer, never a hang.
  for (auto& f : futs) EXPECT_NO_THROW((void)f.get());

  auto late = router.submit(p.corpus[0].matrix);
  bool threw = false;
  try {
    (void)late.get();
  } catch (const DnnspmvError& e) {
    threw = true;
    EXPECT_EQ(e.code(), errc::service_shutdown);
  }
  EXPECT_TRUE(threw) << "submit after shutdown must fail";
  router.shutdown();  // idempotent
}

}  // namespace
}  // namespace dnnspmv
