// src/serve: LRU cache behaviour, fingerprint stability, queue shutdown
// semantics, batched-vs-single prediction equivalence, a multithreaded
// hammer through the full SelectionService, and row-by-row parity of the
// service and router metrics tables with the registry export.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <set>
#include <thread>
#include <type_traits>

#include "common/error.hpp"
#include "core/adaptive.hpp"
#include "obs/metrics.hpp"
#include "perf/labels.hpp"
#include "serve/fault.hpp"
#include "serve/fingerprint.hpp"
#include "serve/router.hpp"

namespace dnnspmv {
namespace {

// One trained selector + labelled corpus shared by every test (training is
// the expensive part; predictions themselves are cheap).
struct ServePipeline {
  std::vector<CorpusEntry> corpus;
  std::unique_ptr<Platform> platform;
  FormatSelector selector;

  ServePipeline() {
    CorpusSpec spec;
    spec.count = 100;
    spec.min_dim = 48;
    spec.max_dim = 160;
    spec.seed = 17;
    corpus = build_corpus(spec);
    platform = make_analytic_cpu(intel_xeon_params());
    const auto labeled = collect_labels(corpus, *platform);

    SelectorOptions opts;
    opts.mode = RepMode::kHistogram;
    opts.rep_rows = 16;
    opts.rep_bins = 8;
    opts.train.epochs = 6;
    opts.train.batch = 16;
    opts.train.lr = 2e-3;
    selector = FormatSelector(opts);
    selector.fit(labeled, platform->formats());
  }
};

ServePipeline& pipeline() {
  static ServePipeline p;
  return p;
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruShard shard(3);
  shard.put(1, 10);
  shard.put(2, 20);
  shard.put(3, 30);
  std::int32_t v = 0;
  ASSERT_TRUE(shard.get(1, v));  // refresh 1 → LRU order is 2,3,1
  shard.put(4, 40);              // evicts 2
  EXPECT_FALSE(shard.get(2, v));
  EXPECT_TRUE(shard.get(1, v));
  EXPECT_EQ(v, 10);
  EXPECT_TRUE(shard.get(3, v));
  EXPECT_TRUE(shard.get(4, v));
  EXPECT_EQ(shard.size(), 3u);
  EXPECT_EQ(shard.capacity(), 3u);
}

TEST(LruCache, PutRefreshesAndOverwrites) {
  LruShard shard(2);
  shard.put(1, 10);
  shard.put(2, 20);
  shard.put(1, 11);  // refresh + overwrite → LRU order is 2,1
  shard.put(3, 30);  // evicts 2
  std::int32_t v = 0;
  ASSERT_TRUE(shard.get(1, v));
  EXPECT_EQ(v, 11);
  EXPECT_FALSE(shard.get(2, v));
}

TEST(LruCache, ShardedAggregatesAndCapsCapacity) {
  ShardedLruCache cache(64, 4);
  EXPECT_EQ(cache.num_shards(), 4u);
  for (std::uint64_t k = 0; k < 200; ++k)
    cache.put(k, static_cast<std::int32_t>(k));
  // Per-shard capacity is 16: every shard fills, so 64 of the 200 keys
  // survive, each with its own value, and the newest key is one of them.
  EXPECT_EQ(cache.size(), 64u);
  std::size_t present = 0;
  for (std::uint64_t k = 0; k < 200; ++k) {
    std::int32_t v = -1;
    if (!cache.get(k, v)) continue;
    ++present;
    EXPECT_EQ(v, static_cast<std::int32_t>(k));
  }
  EXPECT_EQ(present, 64u);
  std::int32_t newest = -1;
  EXPECT_TRUE(cache.get(199, newest));
  // Shards never hold more than one entry when capacity <= shards.
  ShardedLruCache tiny(2, 8);
  EXPECT_LE(tiny.num_shards(), 2u);
}

TEST(Fingerprint, StableAcrossCopiesAndCalls) {
  auto& p = pipeline();
  const Csr& a = p.corpus[0].matrix;
  const std::uint64_t f1 = structural_fingerprint(a);
  const std::uint64_t f2 = structural_fingerprint(a);
  const Csr copy = a;
  EXPECT_EQ(f1, f2);
  EXPECT_EQ(f1, structural_fingerprint(copy));
  // Matches the stats-based overload.
  EXPECT_EQ(f1, structural_fingerprint(compute_stats(a)));
}

TEST(Fingerprint, DistinguishesStructurallyDifferentMatrices) {
  Rng rng(99);
  std::set<std::uint64_t> seen;
  int n = 0;
  // Distinct (dims, nnz) combinations ⇒ fingerprints must all differ.
  for (index_t dim = 40; dim < 140; dim += 4) {
    for (index_t band = 1; band <= 2; ++band) {
      const Csr a = gen_banded(dim, dim, band, 1.0, rng);
      seen.insert(structural_fingerprint(a));
      ++n;
    }
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(n));
}

TEST(Fingerprint, ValueChangesDoNotChangeStructuralKey) {
  Rng rng(5);
  const Csr a = gen_banded(64, 64, 2, 1.0, rng);
  Csr b = a;
  for (double& v : b.val) v *= 3.25;
  EXPECT_EQ(structural_fingerprint(a), structural_fingerprint(b));
}

TEST(RequestQueue, DrainsInFlightRequestsAfterClose) {
  RequestQueue q(8);
  std::vector<std::future<std::int32_t>> futs;
  for (int i = 0; i < 3; ++i) {
    PredictRequest r;
    r.fingerprint = static_cast<std::uint64_t>(i);
    futs.push_back(r.result.get_future());
    ASSERT_EQ(q.try_push(std::move(r)), PushResult::kOk);
  }
  q.close();
  // Push after close is rejected without enqueueing.
  EXPECT_EQ(q.try_push(PredictRequest{}), PushResult::kClosed);
  EXPECT_EQ(q.size(), 3u);

  // Consumers still drain what was in flight…
  std::vector<PredictRequest> batch;
  EXPECT_EQ(q.pop_batch(batch, 2), 2u);
  EXPECT_EQ(q.pop_batch(batch, 2), 1u);
  ASSERT_EQ(batch.size(), 3u);
  for (std::size_t i = 0; i < batch.size(); ++i)
    batch[i].result.set_value(static_cast<std::int32_t>(i));
  // …and only then see closed-and-empty.
  EXPECT_EQ(q.pop_batch(batch, 2), 0u);
  for (std::size_t i = 0; i < futs.size(); ++i)
    EXPECT_EQ(futs[i].get(), static_cast<std::int32_t>(i));
}

TEST(RequestQueue, PopBlocksUntilPush) {
  RequestQueue q(4);
  std::vector<PredictRequest> got;
  std::thread consumer([&] { q.pop_batch(got, 4); });
  PredictRequest r;
  r.fingerprint = 7;
  ASSERT_EQ(q.try_push(std::move(r)), PushResult::kOk);
  consumer.join();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].fingerprint, 7u);
  got[0].result.set_value(0);  // don't leak a broken promise
}

TEST(PredictBatch, MatchesSinglePredictions) {
  auto& p = pipeline();
  std::vector<const Csr*> ptrs;
  for (int i = 0; i < 24; ++i)
    ptrs.push_back(&p.corpus[static_cast<std::size_t>(i)].matrix);
  const std::vector<std::int32_t> batched = p.selector.predict_index_batch(ptrs);
  ASSERT_EQ(batched.size(), ptrs.size());
  for (std::size_t i = 0; i < ptrs.size(); ++i)
    EXPECT_EQ(batched[i], p.selector.predict_index(*ptrs[i])) << "matrix " << i;
  EXPECT_TRUE(p.selector.predict_index_batch({}).empty());
}

TEST(SelectionService, ServesCachedAndUncachedCorrectly) {
  auto& p = pipeline();
  ServiceOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 8;
  ModelRegistry registry(p.selector.clone());
  SelectionService service(registry, opts);

  const Csr& a = p.corpus[0].matrix;
  const std::int32_t direct = p.selector.predict_index(a);
  EXPECT_EQ(service.predict_index(a), direct);  // miss → batcher
  EXPECT_EQ(service.predict_index(a), direct);  // hit → cache
  EXPECT_EQ(service.predict(a),
            p.selector.candidates()[static_cast<std::size_t>(direct)]);

  const ServiceStats s = service.snapshot();
  EXPECT_EQ(s.requests, 3u);
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.cache_hits, 2u);
  EXPECT_GE(s.batches, 1u);
  EXPECT_EQ(s.batched_samples, 1u);
  EXPECT_EQ(s.cache_entries, 1u);
  EXPECT_EQ(s.latency.count, 3u);  // every blocking predict recorded one
}

TEST(SelectionService, ShutdownAnswersInFlightThenRejects) {
  auto& p = pipeline();
  ServiceOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 4;
  ModelRegistry registry(p.selector.clone());
  SelectionService service(registry, opts);

  std::vector<std::future<std::int32_t>> futs;
  for (int i = 0; i < 6; ++i)
    futs.push_back(service.submit(
        {.matrix = &p.corpus[static_cast<std::size_t>(i)].matrix}));
  service.shutdown();  // drains: every accepted request still gets answered
  for (int i = 0; i < 6; ++i) {
    const std::int32_t idx = futs[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(idx, p.selector.predict_index(
                       p.corpus[static_cast<std::size_t>(i)].matrix));
  }
  // After shutdown, new uncached work is rejected with a typed error that
  // is still a std::runtime_error for pre-taxonomy catch sites.
  try {
    service.predict_index(p.corpus[50].matrix);
    FAIL() << "expected DnnspmvError";
  } catch (const DnnspmvError& e) {
    EXPECT_EQ(e.code(), errc::service_shutdown);
  }
  EXPECT_GE(service.snapshot().rejected, 1u);
  service.shutdown();  // idempotent
}

// Row-by-row parity of a metrics table: the typed snapshot's member against
// the registry export's entry of the same row.
template <class Kind>
void expect_row(const obs::MetricsSnapshot& reg, const std::string& name,
                const typename obs::Row<Kind>::Value& typed) {
  SCOPED_TRACE(name);
  if constexpr (std::is_same_v<Kind, obs::Counter>) {
    ASSERT_EQ(reg.counters.count(name), 1u);
    EXPECT_EQ(reg.counters.at(name), typed);
  } else if constexpr (std::is_same_v<Kind, obs::Gauge>) {
    ASSERT_EQ(reg.gauges.count(name), 1u);
    EXPECT_EQ(static_cast<std::uint64_t>(reg.gauges.at(name)), typed);
  } else {
    ASSERT_EQ(reg.histograms.count(name), 1u);
    const obs::Histogram::Snapshot& h = reg.histograms.at(name);
    EXPECT_EQ(h.count, typed.count);
    EXPECT_EQ(h.buckets, typed.buckets);
    EXPECT_EQ(h.sum, typed.sum);
  }
}

std::size_t exported(const obs::MetricsSnapshot& reg) {
  return reg.counters.size() + reg.gauges.size() + reg.histograms.size();
}

// Every row of the service table, and nothing else under the prefix.
void expect_service_rows(const ServiceStats& s, const std::string& prefix) {
  const obs::MetricsSnapshot reg =
      obs::MetricsRegistry::global().snapshot(prefix);
  std::size_t rows = 0;
#define EXPECT_ROW(kind, field, name, doc)                \
  expect_row<obs::kind>(reg, prefix + name, s.field); \
  ++rows;
  DNNSPMV_SERVICE_METRICS(EXPECT_ROW)
#undef EXPECT_ROW
  EXPECT_EQ(exported(reg), rows) << prefix;
}

TEST(SelectionServiceObs, SnapshotMatchesRegistryExport) {
  auto& p = pipeline();
  fault::ScopedFaults guard;
  // One worker pinned in a 60 ms forward while the queue fills: the first
  // request queued behind it expires, the next fills the queue to the
  // watermark and the one after that is shed.
  fault::Plan slow;
  slow.delay_next = 1;
  slow.delay_us = 60'000;
  fault::Injector::global().configure(fault::Site::kForward, slow);
  ServiceOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 1;
  opts.queue_capacity = 4;
  opts.shed_watermark = 0.5;  // shed once 2 of 4 slots are occupied
  ModelRegistry registry(p.selector.clone());
  SelectionService service(registry, opts);
  const auto submit = [&](std::size_t i,
                          std::optional<std::chrono::microseconds> dl = {}) {
    return service.submit({.matrix = &p.corpus[i].matrix, .deadline = dl});
  };

  std::future<std::int32_t> pinned = submit(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  std::future<std::int32_t> expired =
      submit(1, std::chrono::milliseconds(1));
  std::future<std::int32_t> queued = submit(2);
  std::future<std::int32_t> shed = submit(3);
  EXPECT_THROW((void)expired.get(), DnnspmvError);
  for (auto* f : {&pinned, &queued, &shed}) EXPECT_NO_THROW((void)f->get());
  service.predict_index(p.corpus[0].matrix);  // two blocking hits
  service.predict_index(p.corpus[2].matrix);

  const ServiceStats s = service.snapshot();
  EXPECT_EQ(s.requests, 6u);
  EXPECT_EQ(s.cache_hits, 2u);
  EXPECT_EQ(s.deadline_expired, 1u);
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(s.batches, 2u);
  EXPECT_EQ(s.queue_wait.count, 3u);  // every popped miss, expired or not
  EXPECT_EQ(s.latency.count, 2u);     // the blocking predicts only
  // The typed snapshot and the registry's untyped export read the same
  // atomics, so for an idle service every row agrees exactly.
  EXPECT_EQ(&service.metrics().registry(), &obs::MetricsRegistry::global());
  expect_service_rows(s, service.metrics().prefix());

  // A second service registers under a different prefix: no sharing.
  SelectionService other(registry, opts);
  EXPECT_NE(other.metrics().prefix(), service.metrics().prefix());
  EXPECT_EQ(other.snapshot().requests, 0u);
}

TEST(RouterObs, SnapshotMatchesRegistryExport) {
  auto& p = pipeline();
  // Both replicas drag every forward by 2 ms and the hedge budget is 1 µs,
  // so every miss is hedged to its sibling.
  fault::Injector slow_all;
  fault::Plan drag;
  drag.delay_prob = 1.0;
  drag.delay_us = 2'000;
  slow_all.configure(fault::Site::kForward, drag);
  RouterOptions opts;
  opts.replicas = 2;
  opts.hedge_fixed_us = 1;
  opts.service.num_workers = 1;
  opts.pin_workers = false;
  opts.injectors = {&slow_all, &slow_all};
  ModelRegistry registry(p.selector.clone());
  ReplicaRouter router(registry, opts);
  for (std::size_t i = 0; i < 6; ++i)
    (void)router.predict_index(p.corpus[i].matrix);
  router.shutdown();

  const RouterStats s = router.snapshot();
  EXPECT_EQ(s.requests, 6u);
  EXPECT_GT(s.hedges, 0u);
  EXPECT_EQ(s.hedge_budget_us, 1u);
  EXPECT_EQ(s.latency.count, 6u);
  EXPECT_GT(s.cnn_wait.count, 0u);
  const obs::MetricsSnapshot reg =
      obs::MetricsRegistry::global().snapshot(router.metrics_prefix());
  std::size_t rows = 0;
#define EXPECT_ROW(kind, field, name, doc)                             \
  expect_row<obs::kind>(reg, router.metrics_prefix() + name, s.field); \
  ++rows;
  DNNSPMV_ROUTER_METRICS(EXPECT_ROW)
#undef EXPECT_ROW
  EXPECT_EQ(exported(reg), rows);
  // Each replica's block reads the same through both views too.
  ASSERT_EQ(s.replica.size(), 2u);
  for (std::size_t i = 0; i < s.replica.size(); ++i)
    expect_service_rows(s.replica[i], router.replica(i).metrics().prefix());
}

TEST(SelectionService, MultithreadedHammerMatchesDirectPredictions) {
  auto& p = pipeline();
  ServiceOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 16;
  opts.cache_capacity = 64;
  ModelRegistry registry(p.selector.clone());
  SelectionService service(registry, opts);

  constexpr int kPool = 8;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  std::vector<std::int32_t> expected;
  for (int i = 0; i < kPool; ++i)
    expected.push_back(
        p.selector.predict_index(p.corpus[static_cast<std::size_t>(i)].matrix));
  // Warm the cache sequentially so the concurrent phase's hit rate is
  // deterministic (concurrent first-touches of the same matrix would
  // otherwise each count a miss).
  for (int i = 0; i < kPool; ++i)
    service.predict_index(p.corpus[static_cast<std::size_t>(i)].matrix);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int m = (t * 13 + i) % kPool;
        const std::int32_t got = service.predict_index(
            p.corpus[static_cast<std::size_t>(m)].matrix);
        if (got != expected[static_cast<std::size_t>(m)]) ++mismatches;
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);

  const ServiceStats s = service.snapshot();
  EXPECT_EQ(s.requests,
            static_cast<std::uint64_t>(kThreads * kPerThread + kPool));
  EXPECT_EQ(s.cache_hits + s.cache_misses, s.requests);
  EXPECT_EQ(s.cache_misses, static_cast<std::uint64_t>(kPool));
  // Only kPool distinct matrices → nearly everything hits after warmup.
  EXPECT_GE(s.hit_rate(), 0.9);
  EXPECT_LE(s.cache_entries, static_cast<std::uint64_t>(kPool));
}

TEST(AdaptiveSpmv, ReusesPredictionCacheAcrossConstructions) {
  auto& p = pipeline();
  PredictionCache cache(16, 2);
  const Csr& a = p.corpus[0].matrix;

  const AdaptiveSpmv first(p.selector, a, &cache);
  EXPECT_FALSE(first.cache_hit());
  const AdaptiveSpmv second(p.selector, a, &cache);
  EXPECT_TRUE(second.cache_hit());
  EXPECT_EQ(first.format(), second.format());

  // Cached construction still multiplies correctly.
  std::vector<double> x(static_cast<std::size_t>(a.cols), 1.0);
  std::vector<double> y(static_cast<std::size_t>(a.rows), 0.0);
  std::vector<double> ref(static_cast<std::size_t>(a.rows), 0.0);
  second.apply(x, y);
  spmv_reference(a, x, ref);
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_NEAR(y[i], ref[i], 1e-9);

  // Opting out of the cache never reports a hit.
  const AdaptiveSpmv uncached(p.selector, a, nullptr);
  EXPECT_FALSE(uncached.cache_hit());
  EXPECT_EQ(uncached.format(), first.format());

}

TEST(ServiceMetrics, LatencyHistogramBucketsAndQuantiles) {
  ServiceMetrics m;
  m.latency.observe_seconds(0.5e-6);  // bucket 0
  m.latency.observe_seconds(3e-6);    // ~bucket 1
  m.latency.observe_seconds(1e-3);    // ~bucket 9/10
  const ServiceStats s = m.snapshot();
  EXPECT_EQ(s.latency.count, 3u);
  EXPECT_GT(s.latency.quantile(1.0), s.latency.quantile(0.01));
  EXPECT_LE(s.latency.quantile(0.01),
            obs::Histogram::Snapshot::bucket_upper(0));
}

}  // namespace
}  // namespace dnnspmv
