// Serving-layer throughput: SelectionService vs. the single-thread,
// batch-size-1 baseline.
//
// Workload: a pool of distinct matrices queried repeatedly (Zipf-free
// uniform repetition — every request picks a pool matrix at random), the
// shape of an iterative-solver fleet re-deciding formats. The baseline
// runs FormatSelector::predict per request on one thread with no cache.
// The service adds the fingerprint LRU in front and micro-batched forwards
// behind, so repeated structures skip inference and concurrent misses
// coalesce.
//
// Acceptance (ISSUE 1): service throughput ≥ 3× baseline and ≥ 90% cache
// hits on the repeated workload.
//
// Flags (besides the shared ones; small defaults keep this quick):
//   --pool <p>      distinct matrices in the workload     (default 48)
//   --requests <r>  total prediction requests per run     (default 1500)
//   --threads <t>   comma list of client-thread counts    (default: powers
//                   of two up to hardware_concurrency — closed-loop client
//                   counts past the core count measure scheduler contention,
//                   not the service; see the sweep note below)
//   --batch <b>     comma list of max_batch values        (default 1,8,32)
//   --overload <0|1>  run the overload scenario            (default 1)
//   --replicas <r>  comma list of ReplicaRouter sizes for the scaling
//                   sweep (default 1,2,4,8; 0 disables the sweep)
//   --straggler <0|1>  run the straggler/hedging scenario  (default 1)
//   --online-drift <0|1>  run ONLY the online-learning drift scenario and
//                   write BENCH_online.json (default 0; see below)
//   --json <path>   machine-readable results              (default BENCH_serve.json)
//   --trace <path>  chrome://tracing dump of the traced run (default: off)
//
// Thread-sweep note (ISSUE 8): earlier BENCH_serve.json runs showed 1
// client thread beating 4 (25.4k vs 18.0k req/s). That was not the
// service regressing under concurrency — the bench host has one hardware
// thread, so 4 closed-loop clients + 2 workers oversubscribed a single
// core and the sweep measured context-switch thrash (p99 256µs → 4096µs
// while hit rate stayed 97%+). Two fixes: the default sweep now stops at
// hardware_concurrency (explicit --threads still sweeps anything), and
// RequestQueue gates its condvar notifies on the parked-waiter count so a
// push no longer pays a futex wake (and on a saturated box, a preemption)
// when every worker is already runnable.
//
// Online-drift scenario (ISSUE 8): a selector trained on platform A's
// labels serves traffic whose feedback probe measures platform B (same
// candidate formats, different argmin distribution — the paper's §6
// cross-platform migration, arriving as live drift). The closed loop is
// FeedbackCollector → OnlineTrainer::train_once → ModelRegistry.publish →
// subscriber hot-swap. Gates, written to BENCH_online.json:
//   accept_drift_recovery    — within ≤5 published versions, accuracy on
//                              B-labeled data is within 1pt of a selector
//                              freshly trained on B;
//   accept_drift_availability— every request answered during the drift
//                              run (swaps never drop or fail traffic);
//   accept_swap_overhead_1pct— steady-state cached throughput with a
//                              publisher hammering new versions is within
//                              1% of the no-publish baseline (best-of-5,
//                              after a discarded warm-up pair).
//
// After the sweep, one warmed service in the best configuration runs 21
// alternating pairs of >= 250 ms rounds with span tracing off and on to
// measure the observability overhead (budget: <5%, gated on the median of
// the per-pair traced/untraced ratios); BENCH_serve.json carries
// throughput, p50/p99 latency, hit rate, and that overhead.
//
// Overload scenario (ISSUE 5): a tiny queue, one worker slowed by the
// fault-injection hook, and open-loop submitters firing fresh (uncached)
// matrices with per-request deadlines. The robustness layer must keep the
// service predictable while unhealthy: availability stays 100% (every
// request answered — from the CNN or the degraded FallbackSelector path,
// never a timeout or a hang), no client waits past its deadline, and the
// shed/degraded work is visible in the metrics. Gated in BENCH_serve.json
// as accept_overload_availability.
//
// Scaling sweep (ISSUE 6): a ReplicaRouter at 1→2→4→8 replicas serving an
// all-miss workload (every request a distinct matrix, hedging off), so
// throughput tracks the number of independent inference lanes. Gated as
// accept_scaling_2_5x — ≥ 2.5× at 4 replicas, applied only on hosts with
// at least 8 hardware threads (a single-core runner records the sweep but
// cannot exhibit parallel speedup; the JSON carries scaling_gate_applied).
//
// Straggler scenario (ISSUE 6): two replicas, replica 0 handed a private
// armed injector that drags every CNN forward by 5 ms. With hedging the
// router re-dispatches slow requests to the healthy sibling, so tail
// latency must drop vs. the same router with hedging off while
// availability holds at 100%. Gated as accept_straggler_p99.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/online.hpp"
#include "gen/corpus.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "serve/fault.hpp"
#include "serve/feedback.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"

namespace dnnspmv::bench {
namespace {

std::vector<int> parse_int_list(const std::string& s) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string tok =
        s.substr(pos, comma == std::string::npos ? comma : comma - pos);
    try {
      const int v = std::stoi(tok);
      DNNSPMV_CHECK_MSG(v > 0, "list entries must be positive");
      out.push_back(v);
    } catch (const std::logic_error&) {
      DNNSPMV_CHECK_MSG(false, "expected comma-separated positive ints, got '"
                                   << s << "'");
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  DNNSPMV_CHECK_MSG(!out.empty(), "empty int list");
  return out;
}

struct Workload {
  std::vector<Csr> pool;
  std::vector<std::size_t> order;  // request i asks for pool[order[i]]
};

Workload make_workload(const std::vector<CorpusEntry>& corpus,
                       std::size_t pool_size, std::size_t requests,
                       std::uint64_t seed) {
  Workload w;
  pool_size = std::min(pool_size, corpus.size());
  for (std::size_t i = 0; i < pool_size; ++i)
    w.pool.push_back(corpus[i].matrix);
  Rng rng(seed);
  w.order.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i)
    w.order.push_back(rng.uniform_u64(pool_size));
  return w;
}

double run_baseline(const FormatSelector& sel, const Workload& w) {
  Timer t;
  for (std::size_t m : w.order) (void)sel.predict_index(w.pool[m]);
  return static_cast<double>(w.order.size()) / t.seconds();
}

struct ServiceRun {
  double throughput = 0.0;
  ServiceStats stats;
};

ServiceOptions service_options(std::size_t max_batch) {
  ServiceOptions opts;
  opts.num_workers = 2;
  opts.max_batch = max_batch;
  opts.cache_capacity = 4096;
  return opts;
}

// `threads` closed-loop clients split w.order between them and walk their
// slices, pass after pass, until at least `min_seconds` of wall time has
// gone by (0: one pass). Returns requests answered per second.
double drive(SelectionService& service, const Workload& w, int threads,
             double min_seconds = 0.0) {
  Timer t;
  std::atomic<std::size_t> answered{0};
  std::vector<std::thread> clients;
  const std::size_t per =
      (w.order.size() + static_cast<std::size_t>(threads) - 1) /
      static_cast<std::size_t>(threads);
  for (int c = 0; c < threads; ++c) {
    clients.emplace_back([&, c] {
      const std::size_t lo = static_cast<std::size_t>(c) * per;
      const std::size_t hi = std::min(w.order.size(), lo + per);
      do {
        for (std::size_t i = lo; i < hi; ++i)
          (void)service.predict_index(w.pool[w.order[i]]);
        answered += hi - lo;
      } while (t.seconds() < min_seconds);
    });
  }
  for (auto& c : clients) c.join();
  return static_cast<double>(answered.load()) / t.seconds();
}

ServiceRun run_service(const FormatSelector& sel, const Workload& w,
                       int threads, std::size_t max_batch) {
  ModelRegistry registry(sel.clone());
  SelectionService service(registry, service_options(max_batch));
  ServiceRun run;
  run.throughput = drive(service, w, threads);
  run.stats = service.snapshot();
  return run;
}

struct OverloadResult {
  std::size_t submitted = 0;
  std::size_t answered = 0;          // got a prediction (CNN or degraded)
  std::size_t deadline_failures = 0; // deadline_exceeded
  std::size_t other_failures = 0;    // anything else (must stay 0)
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  ServiceStats stats;

  double availability() const {
    return submitted == 0
               ? 1.0
               : static_cast<double>(answered) /
                     static_cast<double>(submitted);
  }
};

// Saturates a deliberately under-provisioned service (tiny queue, one
// worker slowed by fault injection) with distinct matrices — every request
// is a cache miss, so nothing shields the queue. The robustness layer is
// what must keep every client answered and bounded.
OverloadResult run_overload(const FormatSelector& sel,
                            const std::vector<CorpusEntry>& corpus,
                            std::chrono::milliseconds deadline) {
  ServiceOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 4;
  opts.queue_capacity = 16;
  opts.shed_watermark = 0.5;
  opts.push_retries = 2;
  opts.push_backoff_us = 50;
  ModelRegistry registry(sel.clone());
  SelectionService service(registry, opts);

  fault::Plan slow;   // every forward drags: the CNN path is saturated
  slow.delay_prob = 1.0;
  slow.delay_us = 3'000;
  fault::ScopedFaults faults(fault::Site::kForward, slow);

  // Closed-loop clients: in-flight requests ≈ kClients, so overload needs
  // more clients than the shed threshold (queue_capacity × watermark = 8).
  constexpr int kClients = 16;
  const std::size_t per = corpus.size() / kClients;
  OverloadResult r;
  r.submitted = per * kClients;
  std::vector<std::vector<double>> lat_ms(kClients);
  std::atomic<std::size_t> answered{0}, deadline_failures{0},
      other_failures{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      lat_ms[static_cast<std::size_t>(c)].reserve(per);
      for (std::size_t i = 0; i < per; ++i) {
        const Csr& a =
            corpus[static_cast<std::size_t>(c) * per + i].matrix;
        Timer t;
        try {
          (void)service.predict_index(a, SpOp::kSpmv, deadline);
          ++answered;
        } catch (const DnnspmvError& e) {
          if (e.code() == errc::deadline_exceeded)
            ++deadline_failures;
          else
            ++other_failures;
        }
        lat_ms[static_cast<std::size_t>(c)].push_back(t.seconds() * 1e3);
      }
    });
  }
  for (auto& c : clients) c.join();

  std::vector<double> all;
  all.reserve(r.submitted);
  for (const auto& v : lat_ms) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  const auto at = [&](double q) {
    if (all.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(all.size() - 1));
    return all[idx];
  };
  r.answered = answered.load();
  r.deadline_failures = deadline_failures.load();
  r.other_failures = other_failures.load();
  r.p50_ms = at(0.50);
  r.p99_ms = at(0.99);
  r.max_ms = all.empty() ? 0.0 : all.back();
  r.stats = service.snapshot();
  return r;
}

struct ScalingRun {
  double req_s = 0.0;
  RouterStats stats;
};

// All-miss closed-loop workload through a ReplicaRouter: every request is
// a distinct matrix, hedging is off, shedding is disabled, each replica
// runs one worker — throughput measures parallel inference lanes, nothing
// else.
ScalingRun run_scaling(const FormatSelector& sel,
                       const std::vector<CorpusEntry>& corpus, int replicas) {
  RouterOptions opts;
  opts.replicas = replicas;
  opts.hedge = false;
  opts.service.num_workers = 1;
  opts.service.queue_capacity = 512;
  opts.service.shed_watermark = 2.0;  // never shed: measure inference
  ModelRegistry registry(sel.clone());
  ReplicaRouter router(registry, opts);

  const int clients = std::max(2, 2 * replicas);
  std::atomic<std::size_t> next{0};
  Timer t;
  std::vector<std::thread> pool;
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= corpus.size()) return;
        (void)router.predict_index(corpus[i].matrix);
      }
    });
  }
  for (auto& c : pool) c.join();
  ScalingRun r;
  r.req_s = static_cast<double>(corpus.size()) / t.seconds();
  router.shutdown();
  r.stats = router.snapshot();
  return r;
}

struct StragglerRun {
  double p50_us = 0.0;
  double p99_us = 0.0;
  RouterStats stats;
};

// Two replicas, replica 0 scripted slow (every forward +5 ms via a private
// injector), all-miss sequential workload. With hedging on, keys whose
// primary is the straggler get re-dispatched to the healthy sibling after
// the fixed budget; with it off they wait out the full delay.
StragglerRun run_straggler(const FormatSelector& sel,
                           const std::vector<CorpusEntry>& corpus,
                           std::size_t requests, bool hedge) {
  fault::Injector straggler;
  fault::Plan slow;
  slow.delay_prob = 1.0;
  slow.delay_us = 5'000;
  straggler.configure(fault::Site::kForward, slow);

  RouterOptions opts;
  opts.replicas = 2;
  opts.hedge = hedge;
  opts.hedge_fixed_us = 1'000;
  opts.service.num_workers = 1;
  opts.service.shed_watermark = 2.0;
  opts.injectors = {&straggler, nullptr};
  ModelRegistry registry(sel.clone());
  ReplicaRouter router(registry, opts);

  requests = std::min(requests, corpus.size());
  std::vector<double> lat_us;
  lat_us.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    Timer t;
    (void)router.predict_index(corpus[i].matrix);
    lat_us.push_back(t.seconds() * 1e6);
  }
  router.shutdown();
  StragglerRun r;
  r.stats = router.snapshot();
  std::sort(lat_us.begin(), lat_us.end());
  const auto at = [&](double q) {
    return lat_us[static_cast<std::size_t>(
        q * static_cast<double>(lat_us.size() - 1))];
  };
  r.p50_us = at(0.50);
  r.p99_us = at(0.99);
  return r;
}

// Fraction of `labeled` whose measured-argmin label the selector hits.
double selector_accuracy(const FormatSelector& sel,
                         const std::vector<LabeledMatrix>& labeled) {
  std::size_t ok = 0;
  for (const LabeledMatrix& lm : labeled)
    if (sel.predict_index(*lm.matrix) == lm.label) ++ok;
  return labeled.empty() ? 0.0
                         : static_cast<double>(ok) /
                               static_cast<double>(labeled.size());
}

// Steady-state throughput of a registry-backed service, optionally with a
// publisher re-publishing the model on a fixed cadence. The workload is
// mostly cache hits plus a trickle of never-seen matrices (one per 200
// requests) — the misses matter: a parked worker only adopts a published
// version when a miss wakes it, and adoption is what makes swaps cost
// anything (one O(#params) clone, plus the version-keyed cache entries of
// the hot pool re-predicting under the new version). An all-hit workload
// would price swaps at zero by construction; all-miss would price the CNN,
// not the swap. The with/without-publisher pair on the same workload
// isolates the swap machinery.
double run_swap_throughput(ModelRegistry& registry, const Workload& w,
                           const std::vector<Csr>& fresh_stream,
                           int churn_period_ms) {
  ServiceOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 8;
  opts.cache_capacity = 4096;
  SelectionService service(registry, opts);
  for (const Csr& m : w.pool) (void)service.predict_index(m);  // warm cache

  std::atomic<bool> stop{false};
  std::thread publisher;
  if (churn_period_ms > 0) {
    publisher = std::thread([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        registry.publish(registry.current()->clone());
        for (int waited = 0;
             waited < churn_period_ms && !stop.load(std::memory_order_relaxed);
             waited += 5)
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }
  std::size_t fresh_i = 0;
  std::size_t served = 0;
  Timer t;
  for (std::size_t i = 0; i < w.order.size(); ++i) {
    if (i % 200 == 199 && fresh_i < fresh_stream.size()) {
      (void)service.predict_index(fresh_stream[fresh_i++]);
      ++served;
    }
    (void)service.predict_index(w.pool[w.order[i]]);
    ++served;
  }
  const double req_s = static_cast<double>(served) / t.seconds();
  stop.store(true, std::memory_order_relaxed);
  if (publisher.joinable()) publisher.join();
  return req_s;
}

int run_online_drift(BenchConfig cfg, const std::string& json_path) {
  std::printf("== bench_serve --online-drift: feedback -> trainer -> "
              "registry -> hot swap ==\n");
  cfg.min_dim = 48;
  cfg.max_dim = 256;

  // Platform A trains the boot model; platform B is what the feedback
  // probe measures — same candidate formats, drifted label distribution.
  const auto plat_a = make_analytic_cpu(intel_xeon_params());
  const auto plat_b = make_analytic_cpu(amd_a8_params());
  const LabeledCorpus on_a = make_labeled_corpus(cfg, *plat_a);
  const LabeledCorpus on_b = make_labeled_corpus(cfg, *plat_b);
  DNNSPMV_CHECK(plat_a->formats() == plat_b->formats());

  SelectorOptions sopts;
  sopts.mode = RepMode::kHistogram;
  sopts.rep_rows = cfg.size;
  sopts.rep_bins = cfg.bins;
  sopts.train.epochs = std::min(cfg.epochs, 8);
  FormatSelector boot(sopts);
  boot.fit(on_a.labeled, plat_a->formats());

  // The recovery target: the same architecture trained from scratch on
  // B's labels — what an offline redeploy would ship.
  FormatSelector fresh(sopts);
  fresh.fit(on_b.labeled, plat_b->formats());
  const double fresh_acc = selector_accuracy(fresh, on_b.labeled);
  const double drift_share = [&] {
    std::size_t moved = 0;
    for (std::size_t i = 0; i < on_a.labeled.size(); ++i)
      moved += on_a.labeled[i].label != on_b.labeled[i].label;
    return static_cast<double>(moved) /
           static_cast<double>(on_a.labeled.size());
  }();

  ModelRegistry registry(boot.clone());
  FeedbackCollector feedback({.capacity = 1024, .sample_every = 1,
                              .measure_reps = 1});
  ServiceOptions so;
  so.num_workers = 2;
  so.feedback = &feedback;
  // Probe platform B analytically instead of timing this host's kernels:
  // the drifted label distribution is scripted, so the bench is
  // deterministic and runs in CI smoke time.
  so.feedback_probe = [&](const Csr& a) { return plat_b->spmv_times(a); };
  SelectionService service(registry, so);

  OnlineTrainerOptions topts;
  topts.min_batch = 32;
  topts.replay_capacity = 512;
  OnlineTrainer trainer(registry, feedback, topts);

  const double boot_acc = selector_accuracy(*registry.current(), on_b.labeled);
  std::printf("label drift A->B: %.0f%% of corpus; accuracy on B: "
              "boot %.1f%% fresh %.1f%%\n",
              100.0 * drift_share, 100.0 * boot_acc, 100.0 * fresh_acc);

  // Serve the corpus in slices of distinct matrices (all misses → every
  // request is feedback-eligible), stepping one deterministic training
  // round per slice. Recovery = within 1pt of the fresh model, within 5
  // published versions.
  constexpr int kMaxVersions = 5;
  constexpr std::size_t kSlice = 48;
  std::size_t submitted = 0, answered = 0, cursor = 0;
  double acc = boot_acc;
  int versions = 0;
  bool recovered = acc >= fresh_acc - 0.01;
  JsonWriter json;
  json.begin_object();
  json.field("bench", "online_drift");
  json.field("corpus", static_cast<std::int64_t>(on_b.labeled.size()));
  json.field("label_drift_share", drift_share);
  json.field("boot_accuracy_on_b", boot_acc);
  json.field("fresh_accuracy_on_b", fresh_acc);
  json.begin_array("versions");
  // Rounds are bounded independently of versions: once the corpus wraps,
  // slices are all cache hits, produce no feedback, and publish nothing —
  // without the bound a non-recovering model would spin here forever.
  for (int round = 0; !recovered && versions < kMaxVersions &&
                      round < 2 * kMaxVersions;
       ++round) {
    for (std::size_t i = 0; i < kSlice; ++i) {
      const Csr& a = on_b.corpus[cursor % on_b.corpus.size()].matrix;
      ++cursor;
      ++submitted;
      try {
        (void)service.predict_index(a);
        ++answered;
      } catch (const DnnspmvError&) {
        // counted against availability below
      }
    }
    if (!trainer.train_once()) continue;  // slice was all cache hits
    ++versions;
    acc = selector_accuracy(*registry.current(), on_b.labeled);
    recovered = acc >= fresh_acc - 0.01;
    std::printf("version %llu (round %d): accuracy on B %.1f%% "
                "(fresh %.1f%%, consumed %llu samples)\n",
                static_cast<unsigned long long>(registry.version()),
                versions, 100.0 * acc, 100.0 * fresh_acc,
                static_cast<unsigned long long>(trainer.consumed()));
    json.begin_object();
    json.field("version",
               static_cast<std::int64_t>(registry.version()));
    json.field("accuracy_on_b", acc);
    json.end_object();
  }
  json.end_array();
  const double availability =
      submitted == 0 ? 1.0
                     : static_cast<double>(answered) /
                           static_cast<double>(submitted);

  // Hot-swap price at steady state: the same mostly-hit workload with a
  // publisher landing a new version every 2 s (an aggressive cadence for
  // an online fine-tune loop — rounds are gated on fresh feedback, which
  // warm caches starve) vs. no publishes at all. A discarded warm-up pair
  // then interleaved best-of-5: at a 1% gate, best-of-3 still loses to
  // scheduler noise on a busy single-core host (~1.5% run-to-run swings).
  // The fresh-matrix trickle keeps workers adopting (see
  // run_swap_throughput).
  const Workload w = make_workload(on_b.corpus, 48, 100'000, cfg.seed);
  const std::vector<Csr> fresh_stream = [&] {
    CorpusSpec fs;
    fs.count = static_cast<std::int64_t>(w.order.size() / 200);
    fs.min_dim = 48;
    fs.max_dim = 160;
    fs.seed = cfg.seed + 1;
    std::vector<Csr> out;
    for (CorpusEntry& e : build_corpus(fs))
      out.push_back(std::move(e.matrix));
    return out;
  }();
  double quiet = 0.0, churn = 0.0;
  run_swap_throughput(registry, w, fresh_stream, 0);     // warm-up, discarded
  run_swap_throughput(registry, w, fresh_stream, 2000);  // warm-up, discarded
  for (int i = 0; i < 5; ++i) {
    quiet = std::max(quiet,
                     run_swap_throughput(registry, w, fresh_stream, 0));
    churn = std::max(churn,
                     run_swap_throughput(registry, w, fresh_stream, 2000));
  }
  const double overhead_pct = 100.0 * (1.0 - churn / quiet);
  const std::uint64_t churn_versions = registry.version();

  const bool met_recovery = recovered && versions <= kMaxVersions;
  const bool met_availability = availability >= 1.0;
  const bool met_overhead = overhead_pct < 1.0;
  std::printf("\nrecovered: %s (%.1f%% vs fresh %.1f%%, %d version(s), "
              "%zu requests, availability %.1f%%)\n",
              recovered ? "yes" : "NO", 100.0 * acc, 100.0 * fresh_acc,
              versions, submitted, 100.0 * availability);
  std::printf("hot-swap overhead: %.0f req/s quiet, %.0f req/s with "
              "publish-every-2s churn (%.2f%%, %llu versions published)\n",
              quiet, churn, overhead_pct,
              static_cast<unsigned long long>(churn_versions));

  json.field("final_accuracy_on_b", acc);
  json.field("versions_to_recover", versions);
  json.field("requests", static_cast<std::int64_t>(submitted));
  json.field("availability", availability);
  json.field("samples_consumed", trainer.consumed());
  json.field("quiet_req_s", quiet);
  json.field("churn_req_s", churn);
  json.field("swap_overhead_pct", overhead_pct);
  json.field("churn_versions_published",
             static_cast<std::int64_t>(churn_versions));
  json.field("accept_drift_recovery", met_recovery);
  json.field("accept_drift_availability", met_availability);
  json.field("accept_swap_overhead_1pct", met_overhead);
  json.end_object();
  if (json.write_file(json_path))
    std::printf("wrote %s\n", json_path.c_str());
  std::printf("\nacceptance: drift recovery <= %d versions within 1pt: %s; "
              "availability 100%%: %s; swap overhead < 1%%: %s\n",
              kMaxVersions, met_recovery ? "PASS" : "FAIL",
              met_availability ? "PASS" : "FAIL",
              met_overhead ? "PASS" : "FAIL");
  return met_recovery && met_availability && met_overhead ? 0 : 1;
}

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  BenchConfig cfg = parse_common(cli);
  if (cfg.n == 900) cfg.n = 160;  // shrink the shared default: training is
                                  // only setup here, serving is the subject
  const bool online_drift = cli.get_int("online-drift", 0) != 0;
  if (online_drift) {
    const std::string online_json =
        cli.get_string("json", "BENCH_online.json");
    cli.check_unused();
    return run_online_drift(cfg, online_json);
  }
  const auto pool_size = static_cast<std::size_t>(cli.get_int("pool", 48));
  const auto requests =
      static_cast<std::size_t>(cli.get_int("requests", 1500));
  // Default sweep stops at the host's core count: closed-loop clients are
  // CPU-bound request generators, so counts past hardware_concurrency
  // only measure oversubscription (see the header note). An explicit
  // --threads list is swept verbatim.
  const std::string default_threads = [] {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::string s;
    for (unsigned t = 1; t <= hw && t <= 8; t *= 2) {
      if (!s.empty()) s += ',';
      s += std::to_string(t);
    }
    return s;
  }();
  const std::vector<int> threads =
      parse_int_list(cli.get_string("threads", default_threads));
  const std::vector<int> batches =
      parse_int_list(cli.get_string("batch", "1,8,32"));
  const bool overload = cli.get_int("overload", 1) != 0;
  const std::string replicas_arg = cli.get_string("replicas", "1,2,4,8");
  const std::vector<int> replica_counts =
      replicas_arg == "0" ? std::vector<int>{} : parse_int_list(replicas_arg);
  const bool straggler = cli.get_int("straggler", 1) != 0;
  const std::string json_path = cli.get_string("json", "BENCH_serve.json");
  const std::string trace_path = cli.get_string("trace", "");
  cli.check_unused();

  std::printf("== bench_serve: SelectionService throughput ==\n");
  cfg.min_dim = 48;
  cfg.max_dim = 256;
  const auto platform = make_analytic_cpu(intel_xeon_params());
  const LabeledCorpus lc = make_labeled_corpus(cfg, *platform);

  SelectorOptions sopts;
  sopts.mode = RepMode::kHistogram;
  sopts.rep_rows = cfg.size;
  sopts.rep_bins = cfg.bins;
  sopts.train.epochs = std::min(cfg.epochs, 8);
  FormatSelector sel(sopts);
  sel.fit(lc.labeled, platform->formats());

  const Workload w = make_workload(lc.corpus, pool_size, requests, cfg.seed);
  std::printf("corpus=%zu pool=%zu requests=%zu\n", lc.corpus.size(),
              w.pool.size(), w.order.size());

  const double base = run_baseline(sel, w);
  std::printf("\nbaseline (1 thread, batch=1, no cache): %.0f req/s\n", base);

  std::printf("\n%8s %8s %12s %9s %9s %10s %10s %10s %10s\n", "threads",
              "batch", "req/s", "vs base", "hit rate", "mean batch",
              "p50 lat", "p95 lat", "rep p50");
  bool met_throughput = false, met_hits = false;
  JsonWriter json;
  json.begin_object();
  json.field("bench", "serve");
  json.field("pool", static_cast<std::int64_t>(w.pool.size()));
  json.field("requests", static_cast<std::int64_t>(w.order.size()));
  json.field("baseline_req_s", base);
  json.begin_array("sweep");
  int best_threads = threads.front(), best_batch = batches.front();
  double best_req_s = 0.0;
  for (int t : threads) {
    for (int b : batches) {
      const ServiceRun r =
          run_service(sel, w, t, static_cast<std::size_t>(b));
      std::printf(
          "%8d %8d %12.0f %8.1fx %8.1f%% %10.2f %9.0fus %9.0fus %9.0fus\n",
          t, b, r.throughput, r.throughput / base,
          100.0 * r.stats.hit_rate(), r.stats.mean_batch(),
          r.stats.latency.quantile(0.50), r.stats.latency.quantile(0.95),
          r.stats.rep_build.quantile(0.50));
      met_throughput |= r.throughput >= 3.0 * base;
      met_hits |= r.stats.hit_rate() >= 0.9;
      if (r.throughput > best_req_s) {
        best_req_s = r.throughput;
        best_threads = t;
        best_batch = b;
      }
      // Every serving number below comes from the obs registry: stats is
      // ServiceMetrics::snapshot(), a typed view of the service's
      // "serve<N>." instruments.
      json.begin_object();
      json.field("threads", t);
      json.field("batch", b);
      json.field("req_s", r.throughput);
      json.field("vs_baseline", r.throughput / base);
      json.field("hit_rate", r.stats.hit_rate());
      json.field("mean_batch", r.stats.mean_batch());
      json.field("p50_latency_us", r.stats.latency.quantile(0.50));
      json.field("p99_latency_us", r.stats.latency.quantile(0.99));
      // Miss-path representation build (serve<N>.rep_build_us): one sample
      // per cache miss, so count tracks misses and the quantiles isolate
      // the streaming builder's share of miss latency.
      json.field("rep_build_p50_us", r.stats.rep_build.quantile(0.50));
      json.field("rep_build_p99_us", r.stats.rep_build.quantile(0.99));
      json.field("rep_build_mean_us", r.stats.rep_build.mean());
      json.field("rep_build_count",
                 static_cast<std::int64_t>(r.stats.rep_build.count));
      json.end_object();
    }
  }
  json.end_array();

  // Observability overhead: one service in the best configuration, built
  // and warmed (every pool matrix cached) first, then driven with span
  // tracing off and on, pair after pair, each pair's order flipped from the
  // last so neither side always runs second. Each pair's traced/untraced
  // ratio sees the host in one state, and the gate reads their median.
  // Rounds last at least 250 ms, so no round is mostly start-up, and they
  // are all hits: the cheapest requests, on which spans cost the largest
  // share. In every round a drainer empties the span rings each 10 ms, so
  // traced rounds record their spans rather than drop them on full rings.
  constexpr int kTracePairs = 21;
  constexpr double kRoundSeconds = 0.25;
  ModelRegistry trace_registry(sel.clone());
  SelectionService traced_service(
      trace_registry, service_options(static_cast<std::size_t>(best_batch)));
  (void)drive(traced_service, w, best_threads);  // warm: fill the cache
  std::uint64_t dropped_events = 0;
  const auto run_best = [&](bool tracing) {
    obs::clear_trace();
    std::atomic<bool> done{false};
    std::thread drainer([&] {
      while (!done.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        (void)obs::drain_trace_events();
      }
    });
    obs::set_enabled(tracing);
    const double rps = drive(traced_service, w, best_threads, kRoundSeconds);
    obs::set_enabled(false);
    done = true;
    drainer.join();
    dropped_events += obs::dropped_trace_events();
    return rps;
  };
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
  };
  std::vector<double> untraced_rps, traced_rps, ratios;
  for (int i = 0; i < kTracePairs; ++i) {
    const bool on_first = i % 2 == 1;
    const double first = run_best(on_first);
    const double second = run_best(!on_first);
    untraced_rps.push_back(on_first ? second : first);
    traced_rps.push_back(on_first ? first : second);
    ratios.push_back(traced_rps.back() / untraced_rps.back());
  }
  const double untraced = median(untraced_rps);
  const double traced = median(traced_rps);
  const double overhead_pct = 100.0 * (1.0 - median(ratios));
  const bool met_overhead = overhead_pct < 5.0;
  std::printf("\ntracing overhead at %d threads, batch %d: "
              "%.0f req/s off, %.0f req/s on (medians of %d pairs of "
              "%.0f ms rounds); median paired overhead %.2f%%; "
              "%llu span events dropped\n",
              best_threads, best_batch, untraced, traced, kTracePairs,
              1e3 * kRoundSeconds, overhead_pct,
              static_cast<unsigned long long>(dropped_events));
  if (!trace_path.empty()) {
    // One traced pass of the workload, alone in the rings.
    obs::clear_trace();
    obs::set_enabled(true);
    (void)drive(traced_service, w, best_threads);
    obs::set_enabled(false);
    const std::int64_t n_events = obs::write_chrome_trace_file(trace_path);
    std::printf("wrote %lld trace events to %s (%llu dropped)\n",
                static_cast<long long>(n_events),
                trace_path.c_str(),
                static_cast<unsigned long long>(obs::dropped_trace_events()));
  } else {
    obs::clear_trace();  // don't hold ring memory for an unwanted dump
  }

  json.begin_object("traced");
  json.field("threads", best_threads);
  json.field("batch", best_batch);
  json.field("pairs", kTracePairs);
  json.field("round_ms", 1e3 * kRoundSeconds);
  json.field("dropped_span_events", dropped_events);
  json.field("untraced_req_s", untraced);
  json.field("traced_req_s", traced);
  json.field("overhead_pct", overhead_pct);
  json.end_object();
  // Overload scenario: availability must hold at 100% with the degraded
  // path soaking up what the saturated CNN path cannot serve in time.
  bool met_overload = true;
  if (overload) {
    const auto deadline = std::chrono::milliseconds(250);
    const OverloadResult o = run_overload(sel, lc.corpus, deadline);
    met_overload = o.availability() >= 1.0 && o.other_failures == 0 &&
                   o.stats.degraded > 0 &&
                   o.max_ms < 1e3 * 0.25 * 2;  // nobody blocked past ~2x deadline
    std::printf("\noverload (1 slow worker, queue 16, deadline 250ms): "
                "%zu submitted, %zu answered (%.1f%%), %zu deadline-failed; "
                "degraded=%llu shed=%llu retries=%llu; "
                "p50 %.1fms p99 %.1fms max %.1fms\n",
                o.submitted, o.answered, 100.0 * o.availability(),
                o.deadline_failures,
                static_cast<unsigned long long>(o.stats.degraded),
                static_cast<unsigned long long>(o.stats.shed),
                static_cast<unsigned long long>(o.stats.retries),
                o.p50_ms, o.p99_ms, o.max_ms);
    json.begin_object("overload");
    json.field("submitted", static_cast<std::int64_t>(o.submitted));
    json.field("answered", static_cast<std::int64_t>(o.answered));
    json.field("deadline_failures",
               static_cast<std::int64_t>(o.deadline_failures));
    json.field("availability", o.availability());
    json.field("degraded", static_cast<std::int64_t>(o.stats.degraded));
    json.field("shed", static_cast<std::int64_t>(o.stats.shed));
    json.field("retries", static_cast<std::int64_t>(o.stats.retries));
    json.field("deadline_expired",
               static_cast<std::int64_t>(o.stats.deadline_expired));
    json.field("p50_ms", o.p50_ms);
    json.field("p99_ms", o.p99_ms);
    json.field("max_ms", o.max_ms);
    json.end_object();
  }
  // Scaling sweep: router throughput per replica count on the all-miss
  // workload. The 2.5× gate only binds on hosts that can actually run 4
  // replicas' lanes in parallel.
  const unsigned hw_threads = std::thread::hardware_concurrency();
  const bool scaling_gate_applied = hw_threads >= 8;
  bool met_scaling = true;
  if (!replica_counts.empty()) {
    std::printf("\nscaling sweep (all-miss, hedging off, %u hw threads):\n",
                hw_threads);
    std::printf("%9s %12s %9s\n", "replicas", "req/s", "speedup");
    json.begin_array("scaling");
    double base_req_s = 0.0;
    for (int r : replica_counts) {
      const ScalingRun sr = run_scaling(sel, lc.corpus, r);
      if (base_req_s == 0.0) base_req_s = sr.req_s;
      const double speedup = sr.req_s / base_req_s;
      std::printf("%9d %12.0f %8.2fx\n", r, sr.req_s, speedup);
      if (scaling_gate_applied && r == 4) met_scaling = speedup >= 2.5;
      json.begin_object();
      json.field("replicas", r);
      json.field("req_s", sr.req_s);
      json.field("speedup_vs_1", speedup);
      json.field("availability", sr.stats.availability());
      json.field("fp_reused",
                 static_cast<std::int64_t>(
                     sr.stats.total(&ServiceStats::fp_reused)));
      json.end_object();
    }
    json.end_array();
    json.field("hw_threads", static_cast<std::int64_t>(hw_threads));
    json.field("scaling_gate_applied", scaling_gate_applied);
  }

  // Straggler scenario: hedging must beat the same router with hedging
  // off on tail latency, at full availability, while one replica drags.
  bool met_straggler = true;
  if (straggler) {
    const std::size_t n_straggler = std::min<std::size_t>(64, lc.corpus.size());
    const StragglerRun on = run_straggler(sel, lc.corpus, n_straggler, true);
    const StragglerRun off = run_straggler(sel, lc.corpus, n_straggler, false);
    met_straggler = on.p99_us < off.p99_us &&
                    on.stats.availability() >= 1.0 &&
                    off.stats.availability() >= 1.0 && on.stats.hedge_won > 0;
    std::printf("\nstraggler (2 replicas, replica 0 +5ms/forward): "
                "hedged p50 %.0fus p99 %.0fus (hedges=%llu won=%llu) | "
                "unhedged p50 %.0fus p99 %.0fus\n",
                on.p50_us, on.p99_us,
                static_cast<unsigned long long>(on.stats.hedges),
                static_cast<unsigned long long>(on.stats.hedge_won),
                off.p50_us, off.p99_us);
    json.begin_object("straggler");
    json.field("requests", static_cast<std::int64_t>(n_straggler));
    json.field("hedged_p50_us", on.p50_us);
    json.field("hedged_p99_us", on.p99_us);
    json.field("unhedged_p50_us", off.p50_us);
    json.field("unhedged_p99_us", off.p99_us);
    json.field("hedges", static_cast<std::int64_t>(on.stats.hedges));
    json.field("hedge_won", static_cast<std::int64_t>(on.stats.hedge_won));
    json.field("misrouted", static_cast<std::int64_t>(on.stats.misrouted));
    json.field("availability", on.stats.availability());
    json.end_object();
  }

  json.field("accept_throughput_3x", met_throughput);
  json.field("accept_hit_rate_90", met_hits);
  json.field("accept_trace_overhead_5pct", met_overhead);
  json.field("accept_overload_availability", met_overload);
  json.field("accept_scaling_2_5x", met_scaling);
  json.field("accept_straggler_p99", met_straggler);
  json.end_object();
  if (json.write_file(json_path))
    std::printf("wrote %s\n", json_path.c_str());

  std::printf("\nacceptance: throughput >= 3x baseline: %s; "
              "hit rate >= 90%%: %s; tracing overhead < 5%%: %s; "
              "overload availability 100%%: %s; "
              "scaling >= 2.5x @4 replicas: %s; straggler p99 win: %s\n",
              met_throughput ? "PASS" : "FAIL", met_hits ? "PASS" : "FAIL",
              met_overhead ? "PASS" : "FAIL", met_overload ? "PASS" : "FAIL",
              replica_counts.empty()
                  ? "SKIP"
                  : (scaling_gate_applied ? (met_scaling ? "PASS" : "FAIL")
                                          : "SKIP (few cores)"),
              straggler ? (met_straggler ? "PASS" : "FAIL") : "SKIP");
  return met_throughput && met_hits && met_overhead && met_overload &&
                 met_scaling && met_straggler
             ? 0
             : 1;
}

}  // namespace
}  // namespace dnnspmv::bench

int main(int argc, char** argv) { return dnnspmv::bench::run(argc, argv); }
