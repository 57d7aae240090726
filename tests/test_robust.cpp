// Robustness layer of src/serve (ISSUE 5): deadlines, load shedding with
// the FallbackSelector degraded path, bounded retry, and the fault-
// injection hook. Concurrency-sensitive cases (expiry while queued,
// shutdown racing the degraded path, injected worker failures) are in the
// tsan preset's filter and must stay deterministic: every unhealthy state
// is arranged through serve/fault.hpp scripted plans, never timing luck.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "gen/generators.hpp"
#include "perf/labels.hpp"
#include "serve/fault.hpp"
#include "serve/fingerprint.hpp"
#include "serve/service.hpp"

namespace dnnspmv {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

// One trained selector + labelled corpus shared by every test; training is
// the expensive part, the robustness paths under test are cheap.
struct RobustPipeline {
  std::vector<CorpusEntry> corpus;
  std::unique_ptr<Platform> platform;
  std::vector<LabeledMatrix> labeled;
  FormatSelector selector;

  RobustPipeline() {
    CorpusSpec spec;
    spec.count = 80;
    spec.min_dim = 48;
    spec.max_dim = 144;
    spec.seed = 23;
    corpus = build_corpus(spec);
    platform = make_analytic_cpu(intel_xeon_params());
    labeled = collect_labels(corpus, *platform);

    SelectorOptions opts;
    opts.mode = RepMode::kHistogram;
    opts.rep_rows = 16;
    opts.rep_bins = 8;
    opts.train.epochs = 4;
    opts.train.batch = 16;
    opts.train.lr = 2e-3;
    selector = FormatSelector(opts);
    selector.fit(labeled, platform->formats());
  }
};

RobustPipeline& pipeline() {
  static RobustPipeline p;
  return p;
}

errc code_of(std::future<std::int32_t>& fut) {
  try {
    (void)fut.get();
    return errc::ok;
  } catch (const DnnspmvError& e) {
    return e.code();
  }
}

TEST(FaultInjector, ScriptedCountersFireExactlyNTimes) {
  fault::ScopedFaults guard;
  fault::Injector& inj = fault::Injector::global();
  fault::Plan plan;
  plan.drop_next = 2;
  inj.configure(fault::Site::kWorkerPop, plan);
  EXPECT_TRUE(inj.enabled());
  EXPECT_TRUE(inj.decide(fault::Site::kWorkerPop).should_drop);
  EXPECT_TRUE(inj.decide(fault::Site::kWorkerPop).should_drop);
  EXPECT_FALSE(inj.decide(fault::Site::kWorkerPop).should_drop);
  // Other sites were never armed.
  EXPECT_FALSE(inj.decide(fault::Site::kForward).should_throw);
  EXPECT_EQ(inj.injected(fault::Site::kWorkerPop), 2u);
}

TEST(FaultInjector, ResetDisablesAndInjectThrowsTypedError) {
  {
    fault::ScopedFaults guard;
    fault::Plan plan;
    plan.throw_next = 1;
    fault::Injector::global().configure(fault::Site::kForward, plan);
    try {
      fault::Injector::global().inject(fault::Site::kForward);
      FAIL() << "expected injected throw";
    } catch (const DnnspmvError& e) {
      EXPECT_EQ(e.code(), errc::fault_injected);
    }
  }
  // Guard reset: disabled again, decide() is a no-op.
  EXPECT_FALSE(fault::Injector::global().enabled());
  EXPECT_FALSE(fault::Injector::global().inject(fault::Site::kForward));
}

TEST(RequestQueueTryPush, ReportsFullAndClosedWithoutConsuming) {
  RequestQueue q(1);
  PredictRequest first;
  std::future<std::int32_t> first_fut = first.result.get_future();
  EXPECT_EQ(q.try_push(std::move(first)), PushResult::kOk);

  PredictRequest second;
  second.fingerprint = 42;
  std::future<std::int32_t> second_fut = second.result.get_future();
  EXPECT_EQ(q.try_push(std::move(second)), PushResult::kFull);
  // kFull left `second` intact: its promise still delivers.
  second.result.set_value(7);
  EXPECT_EQ(second_fut.get(), 7);

  q.close();
  PredictRequest third;
  EXPECT_EQ(q.try_push(std::move(third)), PushResult::kClosed);

  std::vector<PredictRequest> drained;
  EXPECT_EQ(q.pop_batch(drained, 4), 1u);
  drained[0].result.set_value(0);
  (void)first_fut.get();
}

TEST(Fallback, RuleTierAlwaysReturnsValidCandidateIndex) {
  auto& p = pipeline();
  const FallbackSelector fb(p.selector.candidates());
  for (const CorpusEntry& e : p.corpus) {
    const std::int32_t idx = fb.predict_index(compute_stats(e.matrix));
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, static_cast<std::int32_t>(p.selector.candidates().size()));
    // predict() is the same pick, through the Format lens.
    EXPECT_EQ(fb.predict(compute_stats(e.matrix)),
              p.selector.candidates()[static_cast<std::size_t>(idx)]);
  }
}

TEST(Fallback, RuleTierRecognizesCanonicalStructures) {
  auto& p = pipeline();
  const FallbackSelector fb(p.selector.candidates());
  Rng rng(7);
  // A dense tridiagonal band is DIA's home turf.
  const Csr banded = gen_banded(128, 128, 1, 1.0, rng);
  EXPECT_EQ(fb.predict(compute_stats(banded)), Format::kDia);
  // candidate_index maps the pick back into the CNN's index space.
  EXPECT_EQ(fb.predict_index(compute_stats(banded)),
            p.selector.candidate_index(Format::kDia));
  EXPECT_EQ(p.selector.candidate_index(static_cast<Format>(99)), -1);
}

TEST(Deadline, CacheHitAnswersEvenWhenAlreadyExpired) {
  auto& p = pipeline();
  ModelRegistry registry(p.selector.clone());
  SelectionService service(registry);
  const Csr& a = p.corpus[0].matrix;
  const std::int32_t expected = service.predict_index(a);  // warm the cache
  // A zero deadline would expire instantly in the queue, but hits never
  // reach the queue: the cached answer is always delivered.
  std::future<std::int32_t> fut =
      service.submit({.matrix = &a, .deadline = microseconds{0}});
  EXPECT_EQ(fut.get(), expected);
  EXPECT_EQ(service.snapshot().deadline_expired, 0u);
}

TEST(Deadline, ExpiredWhileQueuedFailsWithDeadlineExceeded) {
  auto& p = pipeline();
  fault::ScopedFaults guard;
  // One worker, batch size 1: the first request pins the worker inside an
  // injected 60 ms forward delay; everything submitted meanwhile waits in
  // the queue past its own deadline.
  fault::Plan slow;
  slow.delay_next = 1;
  slow.delay_us = 60'000;
  fault::Injector::global().configure(fault::Site::kForward, slow);

  ServiceOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 1;
  ModelRegistry registry(p.selector.clone());
  SelectionService service(registry, opts);

  std::future<std::int32_t> pinned =
      service.submit({.matrix = &p.corpus[0].matrix});
  // Give the worker time to pop the pinned request before queueing more.
  std::this_thread::sleep_for(milliseconds(10));
  std::future<std::int32_t> doomed1 = service.submit(
      {.matrix = &p.corpus[1].matrix, .deadline = milliseconds(1)});
  std::future<std::int32_t> doomed2 = service.submit(
      {.matrix = &p.corpus[2].matrix, .deadline = milliseconds(1)});
  // No deadline: served (late) once the worker frees up.
  std::future<std::int32_t> patient =
      service.submit({.matrix = &p.corpus[3].matrix});

  EXPECT_EQ(code_of(doomed1), errc::deadline_exceeded);
  EXPECT_EQ(code_of(doomed2), errc::deadline_exceeded);
  EXPECT_EQ(code_of(pinned), errc::ok);
  EXPECT_EQ(code_of(patient), errc::ok);

  const ServiceStats s = service.snapshot();
  EXPECT_EQ(s.deadline_expired, 2u);
  EXPECT_LT(s.availability(), 1.0);
  EXPECT_EQ(s.degraded, 0u);
}

TEST(Shed, WatermarkAnswersDegradedInsteadOfBlocking) {
  auto& p = pipeline();
  fault::ScopedFaults guard;
  // Pin the single worker so the queue backs up deterministically.
  fault::Plan slow;
  slow.delay_next = 1;
  slow.delay_us = 80'000;
  fault::Injector::global().configure(fault::Site::kForward, slow);

  ServiceOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 1;
  opts.queue_capacity = 4;
  opts.shed_watermark = 0.5;  // shed once 2 of 4 slots are occupied
  ModelRegistry registry(p.selector.clone());
  SelectionService service(registry, opts);
  const FallbackSelector reference(p.selector.candidates());

  std::future<std::int32_t> pinned =
      service.submit({.matrix = &p.corpus[0].matrix});
  std::this_thread::sleep_for(milliseconds(10));
  // Fill to the watermark, then everything degrades.
  std::future<std::int32_t> q1 =
      service.submit({.matrix = &p.corpus[1].matrix});
  std::future<std::int32_t> q2 =
      service.submit({.matrix = &p.corpus[2].matrix});
  Timer shed_timer;
  std::future<std::int32_t> shed1 =
      service.submit({.matrix = &p.corpus[3].matrix});
  std::future<std::int32_t> shed2 =
      service.submit({.matrix = &p.corpus[4].matrix});
  // Degraded answers are immediate — no waiting on the pinned worker.
  EXPECT_EQ(shed1.wait_for(microseconds(0)), std::future_status::ready);
  EXPECT_EQ(shed2.wait_for(microseconds(0)), std::future_status::ready);
  EXPECT_LT(shed_timer.seconds(), 0.05);  // well under the 80 ms pin
  EXPECT_EQ(shed1.get(),
            reference.predict_index(compute_stats(p.corpus[3].matrix)));
  EXPECT_EQ(shed2.get(),
            reference.predict_index(compute_stats(p.corpus[4].matrix)));

  EXPECT_EQ(code_of(pinned), errc::ok);
  EXPECT_EQ(code_of(q1), errc::ok);
  EXPECT_EQ(code_of(q2), errc::ok);

  const ServiceStats s = service.snapshot();
  EXPECT_EQ(s.degraded, 2u);
  EXPECT_EQ(s.shed, 2u);
  EXPECT_EQ(s.availability(), 1.0);
  // Only the three CNN-served matrices were cached; degraded answers are
  // deliberately not (a heuristic pick must not outlive the overload).
  EXPECT_EQ(s.cache_entries, 3u);
}

TEST(Shed, FullQueueDegradesAfterBoundedRetries) {
  auto& p = pipeline();
  fault::ScopedFaults guard;
  // Script the push site itself to report "full" — no workers or queue
  // occupancy involved, so the retry accounting is exact.
  fault::Plan full;
  full.drop_next = 3;  // push attempt + 2 retries all see a full queue
  fault::Injector::global().configure(fault::Site::kQueuePush, full);

  ServiceOptions opts;
  opts.push_retries = 2;
  opts.push_backoff_us = 10;
  opts.shed_watermark = 2.0;  // disable watermark shedding; isolate retry
  ModelRegistry registry(p.selector.clone());
  SelectionService service(registry, opts);
  const FallbackSelector reference(p.selector.candidates());

  std::future<std::int32_t> fut =
      service.submit({.matrix = &p.corpus[5].matrix});
  EXPECT_EQ(fut.get(),
            reference.predict_index(compute_stats(p.corpus[5].matrix)));
  const ServiceStats s = service.snapshot();
  EXPECT_EQ(s.retries, 2u);
  EXPECT_EQ(s.degraded, 1u);
  EXPECT_EQ(s.shed, 0u);  // full-queue degrade, not a watermark shed

  // With the fault disarmed the same matrix goes through the CNN path.
  fault::Injector::global().reset();
  const std::int32_t cnn = service.predict_index(p.corpus[5].matrix);
  EXPECT_EQ(cnn, p.selector.predict_index(p.corpus[5].matrix));
}

TEST(FaultInjection, WorkerThrowFailsBatchWithoutLeakingPromises) {
  auto& p = pipeline();
  fault::ScopedFaults guard;
  fault::Plan boom;
  boom.throw_next = 1;
  fault::Injector::global().configure(fault::Site::kForward, boom);

  ServiceOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 8;
  ModelRegistry registry(p.selector.clone());
  SelectionService service(registry, opts);

  std::vector<std::future<std::int32_t>> futs;
  for (int i = 0; i < 4; ++i)
    futs.push_back(
        service.submit({.matrix = &p.corpus[static_cast<std::size_t>(i)].matrix}));
  int injected = 0, ok = 0;
  for (auto& f : futs) {
    const errc c = code_of(f);
    if (c == errc::fault_injected) ++injected;
    if (c == errc::ok) ++ok;
  }
  // The scripted throw fails exactly the batch(es) it hit; every other
  // request is served. Nothing hangs, nothing reports broken_promise.
  EXPECT_GE(injected, 1);
  EXPECT_EQ(injected + ok, 4);
  EXPECT_EQ(service.snapshot().failed, static_cast<std::uint64_t>(injected));
}

TEST(FaultInjection, DropFailsOnlyTheDroppedRequest) {
  auto& p = pipeline();
  fault::ScopedFaults guard;
  fault::Plan drop;
  drop.drop_next = 1;
  fault::Injector::global().configure(fault::Site::kWorkerPop, drop);

  ServiceOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 1;  // one request per pop → the scripted drop hits one
  ModelRegistry registry(p.selector.clone());
  SelectionService service(registry, opts);

  std::future<std::int32_t> dropped =
      service.submit({.matrix = &p.corpus[0].matrix});
  EXPECT_EQ(code_of(dropped), errc::fault_injected);
  // Same matrix again: the drop consumed its script, this one is served
  // (and proves the drop didn't poison the cache with a bogus answer).
  std::future<std::int32_t> served =
      service.submit({.matrix = &p.corpus[0].matrix});
  EXPECT_EQ(served.get(), p.selector.predict_index(p.corpus[0].matrix));
  EXPECT_EQ(fault::Injector::global().injected(fault::Site::kWorkerPop), 1u);
  EXPECT_EQ(service.snapshot().failed, 1u);
}

TEST(Availability, RejectionAfterShutdownIsUnanswered) {
  auto& p = pipeline();
  ModelRegistry registry(p.selector.clone());
  SelectionService service(registry);
  service.shutdown();
  // An uncached matrix reaches the closed queue: counted as a request
  // (the miss comes first), then rejected, so it is not available.
  std::future<std::int32_t> fut =
      service.submit({.matrix = &p.corpus[7].matrix});
  EXPECT_EQ(code_of(fut), errc::service_shutdown);
  const ServiceStats s = service.snapshot();
  EXPECT_EQ(s.requests, 1u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_LT(s.availability(), 1.0);
}

TEST(Availability, InjectedWorkerDropIsUnanswered) {
  auto& p = pipeline();
  fault::ScopedFaults guard;
  fault::Plan drop;
  drop.drop_next = 1;
  fault::Injector::global().configure(fault::Site::kWorkerPop, drop);
  ServiceOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 1;
  ModelRegistry registry(p.selector.clone());
  SelectionService service(registry, opts);

  std::future<std::int32_t> dropped =
      service.submit({.matrix = &p.corpus[8].matrix});
  EXPECT_EQ(code_of(dropped), errc::fault_injected);
  const ServiceStats s = service.snapshot();
  EXPECT_EQ(s.requests, 1u);
  EXPECT_LT(s.availability(), 1.0);
}

TEST(ShutdownRace, ShutdownWhileDegradedPathActive) {
  auto& p = pipeline();
  fault::ScopedFaults guard;
  fault::Plan slow;
  slow.delay_prob = 1.0;
  slow.delay_us = 2'000;
  fault::Injector::global().configure(fault::Site::kForward, slow);

  ServiceOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 2;
  opts.queue_capacity = 4;
  opts.shed_watermark = 0.5;
  ModelRegistry registry(p.selector.clone());
  SelectionService service(registry, opts);

  // Clients hammer submit (many of them shedding to the degraded path)
  // while shutdown lands mid-flight. Every future must resolve: a value,
  // deadline_exceeded, or service_shutdown — never a hang or a
  // broken_promise.
  std::atomic<int> unresolved{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 12; ++i) {
        const auto m = static_cast<std::size_t>((t * 12 + i) % 40);
        try {
          std::future<std::int32_t> fut = service.submit(
              {.matrix = &p.corpus[m].matrix, .deadline = milliseconds(50)});
          const errc c = code_of(fut);
          if (c != errc::ok && c != errc::deadline_exceeded &&
              c != errc::service_shutdown && c != errc::fault_injected)
            ++unresolved;
        } catch (const DnnspmvError&) {
          // submit itself may observe the shutdown — also a clean outcome
        }
      }
    });
  }
  std::this_thread::sleep_for(milliseconds(5));
  service.shutdown();
  for (auto& c : clients) c.join();
  EXPECT_EQ(unresolved.load(), 0);
  // Counters stayed coherent through the race.
  const ServiceStats s = service.snapshot();
  EXPECT_EQ(s.requests, s.cache_hits + s.cache_misses);
}

TEST(RobustMetrics, RegistryExportCarriesRobustnessCounters) {
  auto& p = pipeline();
  fault::ScopedFaults guard;
  fault::Plan full;
  full.drop_next = 1;
  fault::Injector::global().configure(fault::Site::kQueuePush, full);

  ServiceOptions opts;
  opts.push_retries = 0;
  opts.shed_watermark = 2.0;
  ModelRegistry registry(p.selector.clone());
  SelectionService service(registry, opts);
  std::future<std::int32_t> fut =
      service.submit({.matrix = &p.corpus[6].matrix});
  (void)fut.get();  // degraded answer

  const ServiceStats s = service.snapshot();
  const std::string& prefix = service.metrics().prefix();
  const obs::MetricsSnapshot reg =
      service.metrics().registry().snapshot(prefix);
  EXPECT_EQ(reg.counter_or(prefix + "degraded"), s.degraded);
  EXPECT_EQ(reg.counter_or(prefix + "shed"), s.shed);
  EXPECT_EQ(reg.counter_or(prefix + "retries"), s.retries);
  EXPECT_EQ(reg.counter_or(prefix + "deadline_expired"), s.deadline_expired);
  EXPECT_EQ(s.degraded, 1u);
  // The lenient accessors read absent names as their fallback.
  EXPECT_EQ(reg.counter_or(prefix + "no_such_counter", 17u), 17u);
  EXPECT_EQ(reg.gauge_or(prefix + "no_such_gauge", 2.5), 2.5);
  EXPECT_EQ(reg.histogram_or(prefix + "no_such_histogram").count, 0u);
}

}  // namespace
}  // namespace dnnspmv
