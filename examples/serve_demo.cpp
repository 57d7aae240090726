// Serving demo: train a selector, stand up a SelectionService — or, with
// --replicas N, a sharded ReplicaRouter — and hit it from several client
// threads, then read the metrics block.
//
//   ./serve_demo [--clients 4] [--requests 400] [--replicas 0]
//                [--op spmv] [--online 0] [--quantize 0]
//                [--trace trace.json]
//
// --replicas 0 (default) serves through a single SelectionService; N >= 1
// builds a ReplicaRouter with N replicas (consistent-hash sharding, NUMA-
// aware worker pinning, hedged re-dispatch) and reports per-replica
// hit-rate/depth plus the router's hedge counters at exit.
//
// --op spmm trains the selector's second head on measured SpMM labels
// (K = 32 dense columns) and serves every request as an SpMM query: same
// service, same cache, op-scoped keys — the exit stats show the traffic
// under spmm_requests instead of spmv_requests.
//
// --online 1 closes the learning loop (single-service mode): the service
// publishes sampled cache misses to a FeedbackCollector — here probed
// against a *different* analytic platform than the one the selector was
// trained on, so the measured labels have drifted — and a background
// OnlineTrainer fine-tunes and publishes new versions to the service's
// ModelRegistry, which workers hot-swap to between micro-batches. The
// exit block reports versions published, hot swaps observed, and feedback
// stream accounting.
//
// --quantize 1 calibrates the trained CNN and serves int8 weights on the
// cold-miss path (the same per-channel scheme bench_overhead gates at
// >= 2x forward speedup); online publishes stay quantized too.
//
// With --trace, span tracing is enabled for the serving phase and a
// chrome://tracing / Perfetto-loadable dump of every request's pipeline
// (fingerprint → cache probe → queue → batch forward → fulfill) is
// written to the given path, plus a flat JSON export of the registry.
#include <cstdio>
#include <thread>

#include "common/cli.hpp"
#include "core/feedback.hpp"
#include "core/online.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "perf/labels.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"

using namespace dnnspmv;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int clients = static_cast<int>(cli.get_int("clients", 4));
  const auto requests =
      static_cast<std::size_t>(cli.get_int("requests", 400));
  const int replicas = static_cast<int>(cli.get_int("replicas", 0));
  SpOp op = op_from_name(cli.get_string("op", "spmv"));
  const bool online = cli.get_int("online", 0) != 0;
  const bool quantize = cli.get_int("quantize", 0) != 0;
  const std::string trace_path = cli.get_string("trace", "");
  cli.check_unused();
  if (online && replicas > 0) {
    std::printf("--online demos the single-service loop; ignoring "
                "--replicas %d\n", replicas);
  }
  if (online && op == SpOp::kSpmm) {
    // The feedback probe measures SpMV labels, and the service only
    // publishes feedback for SpMV misses — an all-SpMM online demo would
    // just idle the trainer.
    std::printf("--online fine-tunes on SpMV feedback; ignoring "
                "--op spmm\n");
    op = SpOp::kSpmv;
  }

  // 1. A small trained selector (the usual offline pipeline).
  std::printf("training selector...\n");
  CorpusSpec spec;
  spec.count = 120;
  spec.min_dim = 48;
  spec.max_dim = 192;
  const auto corpus = build_corpus(spec);
  const auto platform = make_analytic_cpu(intel_xeon_params());
  const auto labeled = collect_labels(corpus, *platform);

  SelectorOptions sopts;
  sopts.rep_rows = 16;
  sopts.rep_bins = 8;
  sopts.train.epochs = 8;
  sopts.quantize = quantize;
  FormatSelector selector(sopts);
  selector.fit(labeled, platform->formats());
  if (op == SpOp::kSpmm) {
    std::printf("labelling SpMM at K=%d on the host kernels...\n",
                static_cast<int>(sopts.spmm_cols));
    selector.fit_spmm(collect_labels_spmm(corpus, platform->formats(),
                                          sopts.spmm_cols, /*reps=*/1));
  }
  if (selector.quantized())
    std::printf("selector quantized: cold misses run the int8 forward\n");

  // 2. The serving layer: sharded LRU cache in front, micro-batching
  //    workers behind a bounded queue — one service, or a router fanning
  //    the keyspace over N replicas of that whole stack. Either serves the
  //    registry's current version.
  ModelRegistry registry(selector.clone());
  ServiceOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 16;
  opts.cache_capacity = 1024;
  // Declared so that each dies before what it references: the trainer
  // before the service, the service before its feedback stream and probe.
  const auto drifted = make_analytic_cpu(amd_a8_params());
  std::unique_ptr<FeedbackCollector> feedback;
  std::unique_ptr<SelectionService> service;
  std::unique_ptr<ReplicaRouter> router;
  std::unique_ptr<OnlineTrainer> trainer;
  if (online) {
    // The learning loop: sampled misses are probed against a platform the
    // selector was NOT trained on (drifted labels), the trainer fine-tunes
    // in the background, and workers hot-swap to each published version.
    feedback = std::make_unique<FeedbackCollector>(
        FeedbackOptions{.capacity = 256, .sample_every = 1,
                        .measure_reps = 1});
    opts.feedback = feedback.get();
    opts.feedback_probe = [&drifted](const Csr& m) {
      return drifted->spmv_times(m);
    };
    service = std::make_unique<SelectionService>(registry, opts);
    OnlineTrainerOptions topts;
    topts.min_batch = 32;
    topts.poll_interval_ms = 20;
    trainer = std::make_unique<OnlineTrainer>(registry, *feedback, topts);
    trainer->start();
    std::printf("online loop armed: feedback probe measures a drifted "
                "platform, trainer polls every %lld ms\n",
                static_cast<long long>(topts.poll_interval_ms));
  } else if (replicas > 0) {
    RouterOptions ropts;
    ropts.replicas = replicas;
    ropts.service = opts;
    router = std::make_unique<ReplicaRouter>(registry, ropts);
    std::printf("router: %d replicas, hedge budget %lld us", replicas,
                static_cast<long long>(router->hedge_budget_us()));
    for (std::size_t r = 0; r < router->placement().size(); ++r) {
      const auto& g = router->placement()[r];
      std::printf("%s replica %zu -> node %d (%zu cpus)", r == 0 ? ";" : ",",
                  r, g.node, g.cpus.size());
    }
    std::printf("\n");
  } else {
    service = std::make_unique<SelectionService>(registry, opts);
  }
  auto predict = [&](const Csr& m) {
    return router ? router->predict(m, op) : service->predict(m, op);
  };

  // 3. Concurrent clients, each re-querying a shared matrix pool — the
  //    repeated-structure traffic a solver fleet generates.
  std::printf("serving %zu requests from %d clients...\n",
              requests * static_cast<std::size_t>(clients), clients);
  if (!trace_path.empty()) obs::set_enabled(true);  // trace serving only
  std::vector<std::thread> workers;
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      for (std::size_t i = 0; i < requests; ++i) {
        const auto& m =
            corpus[(static_cast<std::size_t>(c) * 31 + i) % corpus.size()]
                .matrix;
        const Format f = predict(m);
        if (i == 0)
          std::printf("  client %d: first pick = %s\n", c,
                      format_name(f).c_str());
      }
    });
  }
  for (auto& w : workers) w.join();

  if (online) {
    // The poll loop may not have caught the tail of the feedback stream
    // before the clients finished — stop it and flush the backlog into
    // one deterministic final round, then serve a second wave so the hot
    // swap shows up in the serving stats (workers adopt the new version
    // between micro-batches; nothing pauses).
    trainer->stop();
    if (trainer->train_once())
      std::printf("published fine-tuned version %llu; serving second "
                  "wave...\n",
                  static_cast<unsigned long long>(registry.version()));
    // Fresh matrices so the wave misses the cache: a miss is what wakes a
    // worker, and a woken worker is what adopts the new version (cached
    // answers keep flowing from the pinned version until then — that's
    // the no-pause contract, not a bug).
    CorpusSpec wave2 = spec;
    wave2.count = 60;
    wave2.seed = spec.seed + 1;
    for (const CorpusEntry& e : build_corpus(wave2))
      (void)predict(e.matrix);
  }

  // 4. What the metrics block saw.
  if (router) {
    const RouterStats rs = router->snapshot();
    std::printf("\n-- router stats --\n");
    std::printf("requests      %llu\n",
                static_cast<unsigned long long>(rs.requests));
    std::printf("hit rate      %.1f%% (over all replicas)\n",
                100.0 * rs.hit_rate());
    std::printf("hedges        %llu issued, %llu won, %llu misrouted\n",
                static_cast<unsigned long long>(rs.hedges),
                static_cast<unsigned long long>(rs.hedge_won),
                static_cast<unsigned long long>(rs.misrouted));
    std::printf("hedge budget  %lld us\n",
                static_cast<long long>(rs.hedge_budget_us));
    std::printf("availability  %.1f%%\n", 100.0 * rs.availability());
    for (std::size_t r = 0; r < rs.replica.size(); ++r) {
      const ServiceStats& s = rs.replica[r];
      std::printf("  replica %zu: %llu requests, %.1f%% hits, "
                  "%llu degraded, depth %zu\n",
                  r, static_cast<unsigned long long>(s.requests),
                  100.0 * s.hit_rate(),
                  static_cast<unsigned long long>(s.degraded),
                  router->replica(r).queue_depth());
    }
  } else {
    const ServiceStats s = service->snapshot();
    std::printf("\n-- service stats --\n");
    std::printf("requests      %llu (%llu spmv, %llu spmm)\n",
                static_cast<unsigned long long>(s.requests),
                static_cast<unsigned long long>(s.spmv_requests),
                static_cast<unsigned long long>(s.spmm_requests));
    std::printf("cache hits    %llu (%.1f%%)\n",
                static_cast<unsigned long long>(s.cache_hits),
                100.0 * s.hit_rate());
    std::printf("batches       %llu (mean size %.2f, max %llu)\n",
                static_cast<unsigned long long>(s.batches), s.mean_batch(),
                static_cast<unsigned long long>(s.max_batch));
    std::printf("latency p50   %.0f us\n", s.latency.quantile(0.5));
    std::printf("latency p95   %.0f us\n", s.latency.quantile(0.95));
    std::printf("rep build     p50 %.0f us, mean %.0f us over %llu misses\n",
                s.rep_build.quantile(0.5), s.rep_build.mean(),
                static_cast<unsigned long long>(s.rep_build.count));
    std::printf("cache entries %llu\n",
                static_cast<unsigned long long>(s.cache_entries));
    if (online) {
      trainer->stop();  // finish any round in flight before reading stats
      std::printf("\n-- online loop --\n");
      std::printf("feedback      %llu samples published, %llu dropped\n",
                  static_cast<unsigned long long>(feedback->published()),
                  static_cast<unsigned long long>(feedback->dropped()));
      std::printf("trainer       %llu rounds, %llu samples consumed, "
                  "%llu versions published\n",
                  static_cast<unsigned long long>(trainer->rounds()),
                  static_cast<unsigned long long>(trainer->consumed()),
                  static_cast<unsigned long long>(trainer->published()));
      std::printf("model         serving version %llu after %llu hot "
                  "swap(s); registry at version %llu\n",
                  static_cast<unsigned long long>(s.model_version),
                  static_cast<unsigned long long>(s.model_swaps),
                  static_cast<unsigned long long>(registry.version()));
    }
  }

  // 5. Optional observability dump: the spans as a chrome://tracing
  //    timeline, and the full registry (this service + nn + spmv) as JSON.
  if (!trace_path.empty()) {
    obs::set_enabled(false);
    const std::int64_t n = obs::write_chrome_trace_file(trace_path);
    std::printf("\nwrote %lld trace events to %s "
                "(open in chrome://tracing or https://ui.perfetto.dev)\n",
                static_cast<long long>(n), trace_path.c_str());
    const std::string metrics_path = trace_path + ".metrics.json";
    obs::write_text_file(metrics_path,
                         obs::metrics_to_json(
                             obs::MetricsRegistry::global().snapshot()));
    std::printf("wrote metrics snapshot to %s\n", metrics_path.c_str());
  }
  return 0;
}
