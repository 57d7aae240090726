// Serving-tier acceptance bench: seven scenarios on one harness.
//
// Every scenario sends its traffic through one closed-loop client loop
// (drive(): N client threads, a request count or a minimum wall time, and
// each request's wall latency and outcome), reads latencies through one
// percentile rule (Percentiles), reports each number once (report(): a
// JSON field, echoed as name=value on stdout) and is judged in one gate
// list (finish(): the acceptance line, the accept_* keys, the exit code).
// Both modes serve the same boot model: the histogram CNN trained on the
// analytic Xeon's labels for the shared corpus (train_selector()).
//
// Default mode, written to BENCH_serve.json:
//  1. baseline: FormatSelector::predict_index per request on one client,
//     no cache, over the repeated workload: a pool of distinct matrices,
//     each request a uniformly drawn pool member (an iterative-solver fleet
//     re-deciding formats).
//  2. sweep: one SelectionService (fingerprint LRU in front, micro-batched
//     forwards behind, 2 workers) per (client threads, max_batch) pair on
//     the same workload. accept_throughput_3x: some pair reaches 3x the
//     baseline; accept_hit_rate_90: some pair reaches 90% cache hits.
//  3. traced: one warmed service in the fastest pair runs 21 alternating
//     pairs of >= 250 ms all-hit rounds with span tracing off and on, a
//     drainer emptying the span rings every 10 ms.
//     accept_trace_overhead_5pct: the median per-pair traced/untraced
//     ratio costs < 5%.
//  4. overload: a 16-deep queue shedding at half, one worker whose every
//     forward drags 3 ms, and 16 clients sending distinct (uncached)
//     matrices with 250 ms deadlines. accept_overload_availability: every
//     request answered (by the CNN or the degraded path), no failure other
//     than a deadline, some degraded answers, and no request past twice
//     its deadline.
//  5. scaling: a ReplicaRouter of each --replicas size answers every
//     corpus matrix once (all misses, hedging off, no shedding, one worker
//     per replica) for max(2, 2 x replicas) clients. accept_scaling_2_5x:
//     >= 2.5x at 4 replicas, applied only on hosts with >= 8 hardware
//     threads (the report records scaling_gate_applied).
//  6. straggler: two replicas, replica 0's every forward dragging 5 ms
//     through a private injector, 64 distinct matrices in sequence, with
//     hedging on and off. accept_straggler_p99: hedging lowers p99, both
//     sides answer every request, and at least one hedge wins.
//
// --online-drift 1, written to BENCH_online.json:
//  7. drift: the boot model serves traffic whose feedback probe measures
//     the analytic A8 (same formats, drifted argmin: the paper's
//     cross-platform migration arriving as live drift) through
//     FeedbackCollector -> OnlineTrainer::train_once ->
//     ModelRegistry::publish -> hot swap, one training round per slice of
//     48 distinct matrices. accept_drift_recovery: within 5 published
//     versions, accuracy on A8 labels is within 1pt of a model trained
//     afresh on them; accept_drift_availability: every drift request
//     answered; accept_swap_overhead_1pct: a mostly-hit workload (a fresh
//     matrix every 200 requests, so workers keep adopting versions) with a
//     publisher landing a version every 2 s runs within 1% of the same
//     workload without publishes (best of 5 interleaved runs each, after a
//     discarded warm-up pair).
//
// Flags (besides the shared ones; small defaults keep this quick):
//   --pool <p>       distinct matrices in the workload   (default 48)
//   --requests <r>   requests per sweep run               (default 1500)
//   --threads <t>    comma list of client-thread counts   (default: powers
//                    of two up to the hardware thread count, at most 8;
//                    closed-loop clients past the core count measure
//                    oversubscription, not the service)
//   --batch <b>      comma list of max_batch values       (default 1,8,32)
//   --replicas <r>   comma list of router sizes to scale over (default
//                    1,2,4,8; 0 skips the scaling scenario)
//   --online-drift <0|1>  run the drift scenario instead  (default 0)
//   --json <path>    report (default BENCH_serve.json, or
//                    BENCH_online.json with --online-drift 1)
//   --trace <path>   chrome://tracing dump of one traced pass (default off)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <initializer_list>
#include <sstream>
#include <thread>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/feedback.hpp"
#include "core/online.hpp"
#include "gen/corpus.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "serve/fault.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"

namespace dnnspmv::bench {
namespace {

using std::chrono::milliseconds;

// ---- the harness ----------------------------------------------------------

// What a closed-loop drive saw: every request's outcome and wall latency.
struct Drive {
  std::size_t answered = 0;
  std::size_t deadline_failures = 0;  // errc::deadline_exceeded
  std::size_t other_failures = 0;     // any other DnnspmvError
  std::vector<double> latency_us;     // one per request sent
  double seconds = 0.0;               // wall time of the whole drive

  std::size_t sent() const { return latency_us.size(); }
  double req_s() const { return static_cast<double>(answered) / seconds; }
  double availability() const {
    return sent() ? static_cast<double>(answered) / sent() : 1.0;
  }
};

// `clients` closed-loop clients (the calling thread is client 0) split
// request numbers 0 .. n-1 between them, client c taking c, c + clients,
// c + 2 x clients, ..., and call send(i % n) for each. With min_seconds
// set, a client that is through its share keeps going, wrapping around,
// until that much wall time has passed. A DnnspmvError from send() fails
// that request; any other exception ends the program.
template <class Send>
Drive drive(int clients, std::size_t n, const Send& send,
            double min_seconds = 0.0) {
  std::vector<Drive> per(static_cast<std::size_t>(clients));
  const Timer wall;
  const auto client = [&](std::size_t c) {
    Drive& d = per[c];
    d.latency_us.reserve(n / per.size() + 1);
    for (std::size_t i = c; i < n || wall.seconds() < min_seconds;
         i += per.size()) {
      const Timer t;
      try {
        send(i % n);
        ++d.answered;
      } catch (const DnnspmvError& e) {
        ++(e.code() == errc::deadline_exceeded ? d.deadline_failures
                                               : d.other_failures);
      }
      d.latency_us.push_back(t.seconds() * 1e6);
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 1; c < per.size(); ++c) threads.emplace_back(client, c);
  client(0);
  for (std::thread& t : threads) t.join();
  Drive all;
  all.seconds = wall.seconds();
  for (const Drive& d : per) {
    all.answered += d.answered;
    all.deadline_failures += d.deadline_failures;
    all.other_failures += d.other_failures;
    all.latency_us.insert(all.latency_us.end(), d.latency_us.begin(),
                          d.latency_us.end());
  }
  return all;
}

// A sorted sample read by the gates' two rules: at(q) is element
// floor(q * (n - 1)) (p50, p99, and the max at q = 1; 0 when empty), and
// median() the middle element or the mean of the middle pair.
struct Percentiles {
  explicit Percentiles(std::vector<double> v) : s(std::move(v)) {
    std::sort(s.begin(), s.end());
  }
  double at(double q) const {
    return s.empty() ? 0.0 : s[static_cast<std::size_t>(q * (s.size() - 1))];
  }
  double median() const {
    const std::size_t h = s.size() / 2;
    return s.size() % 2 ? s[h] : 0.5 * (s[h - 1] + s[h]);
  }
  std::vector<double> s;  // sorted
};

// One reported number: a JSON field, echoed as name=value on stdout.
struct Num {
  const char* name;
  double value;
  bool count = false;  // written as an integer
};

Num count(const char* name, std::uint64_t v) {
  return {name, static_cast<double>(v), true};
}

// Prints `title` and `nums` on one line and writes `nums` into the JSON
// object `object` ("" for an array element), or with no object given, into
// the open scope.
void report(JsonWriter& json, const std::string& title,
            std::initializer_list<Num> nums, const char* object = nullptr) {
  std::printf("%s:", title.c_str());
  if (object) json.begin_object(object);
  for (const Num& n : nums) {
    if (n.count)
      json.field(n.name, static_cast<std::int64_t>(n.value));
    else
      json.field(n.name, n.value);
    std::printf(n.count ? " %s=%.0f" : " %s=%.6g", n.name, n.value);
  }
  if (object) json.end_object();
  std::printf("\n");
}

// One acceptance gate. A gate that does not bind on this run prints
// `skip` in place of its verdict, and its key reads true.
struct Gate {
  const char* key;   // accept_* field of the report
  std::string what;  // its text on the acceptance line
  bool pass;
  const char* skip = nullptr;
};

// Writes the gates' keys, closes and writes the report, and prints the
// acceptance line; returns the exit code (0 when every gate passes).
int finish(JsonWriter& json, const std::string& path,
           const std::vector<Gate>& gates) {
  bool all = true;
  std::string line;
  for (const Gate& g : gates) {
    json.field(g.key, g.pass);
    all = all && g.pass;
    line += (line.empty() ? " " : "; ") + g.what + ": " +
            (g.skip ? g.skip : (g.pass ? "PASS" : "FAIL"));
  }
  json.end_object();
  if (json.write_file(path)) std::printf("wrote %s\n", path.c_str());
  std::printf("\nacceptance:%s\n", line.c_str());
  return all ? 0 : 1;
}

// The model both modes start from: the histogram CNN (at most 8 epochs)
// trained on `platform`'s labels for `lc`.
FormatSelector train_selector(const BenchConfig& cfg, const LabeledCorpus& lc,
                              const Platform& platform) {
  FormatSelector sel({.mode = RepMode::kHistogram,
                      .rep_rows = cfg.size,
                      .rep_bins = cfg.bins,
                      .train = {.epochs = std::min(cfg.epochs, 8)}});
  sel.fit(lc.labeled, platform.formats());
  return sel;
}

// ---- workloads ------------------------------------------------------------

std::vector<int> parse_int_list(const std::string& s) {
  std::vector<int> out;
  std::istringstream in(s);
  for (int v; in >> v; in.ignore(1)) out.push_back(v);
  DNNSPMV_CHECK_MSG(in.eof() && !out.empty() &&
                        *std::min_element(out.begin(), out.end()) > 0,
                    "expected positive ints like 1,2,4, got '" << s << "'");
  return out;
}

// The repeated workload: `requests` uniform draws from the first `pool`
// matrices of `corpus`.
std::vector<const Csr*> repeated(const std::vector<CorpusEntry>& corpus,
                                 std::size_t pool, std::size_t requests,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<const Csr*> order(requests);
  for (const Csr*& m : order)
    m = &corpus[rng.uniform_u64(std::min(pool, corpus.size()))].matrix;
  return order;
}

ServiceOptions service_options(std::size_t max_batch) {
  return {.num_workers = 2, .max_batch = max_batch, .cache_capacity = 4096};
}

// Fraction of `labeled` whose measured-argmin label the selector hits.
double selector_accuracy(const FormatSelector& sel,
                         const std::vector<LabeledMatrix>& labeled) {
  std::size_t ok = 0;
  for (const LabeledMatrix& lm : labeled)
    ok += sel.predict_index(*lm.matrix) == lm.label;
  return static_cast<double>(ok) / static_cast<double>(labeled.size());
}

// ---- default mode: scenarios 1-6 ------------------------------------------

struct ServeFlags {
  std::size_t pool = 48, requests = 1500;
  std::vector<int> threads, batches, replicas;
  std::string trace_path;
};

int run_serve(const LabeledCorpus& lc, const FormatSelector& sel,
              const BenchConfig& cfg, const ServeFlags& f,
              const std::string& json_path) {
  const std::size_t pool = std::min(f.pool, lc.corpus.size());
  const std::vector<const Csr*> w =
      repeated(lc.corpus, pool, f.requests, cfg.seed);
  const auto repeats = [&w](auto& predictor) {
    return [&w, p = &predictor](std::size_t i) {
      (void)p->predict_index(*w[i]);
    };
  };
  JsonWriter json;
  json.begin_object();
  json.field("bench", "serve");

  // 1. Baseline.
  const double base = drive(1, w.size(), repeats(sel)).req_s();
  report(json, "baseline (1 client, no cache)",
         {count("pool", pool), count("requests", w.size()),
          {"baseline_req_s", base}});

  // 2. Sweep. Every serving number is the service's "serve<N>." registry
  // block; rep_build has one sample per miss, so its quantiles isolate the
  // streaming builder's share of miss latency.
  bool met_throughput = false, met_hits = false;
  int best_threads = f.threads.front(), best_batch = f.batches.front();
  double best_req_s = 0.0;
  json.begin_array("sweep");
  for (int t : f.threads) {
    for (int b : f.batches) {
      ModelRegistry registry(sel.clone());
      SelectionService service(registry, service_options(b));
      const double req_s = drive(t, w.size(), repeats(service)).req_s();
      const ServiceStats s = service.snapshot();
      report(json, "sweep",
             {count("threads", t), count("batch", b), {"req_s", req_s},
              {"vs_baseline", req_s / base}, {"hit_rate", s.hit_rate()},
              {"mean_batch", s.mean_batch()},
              {"p50_latency_us", s.latency.quantile(0.50)},
              {"p99_latency_us", s.latency.quantile(0.99)},
              {"rep_build_p50_us", s.rep_build.quantile(0.50)},
              {"rep_build_p99_us", s.rep_build.quantile(0.99)},
              {"rep_build_mean_us", s.rep_build.mean()},
              count("rep_build_count", s.rep_build.count)},
             "");
      met_throughput |= req_s >= 3.0 * base;
      met_hits |= s.hit_rate() >= 0.9;
      if (req_s > best_req_s) {
        best_req_s = req_s;
        best_threads = t;
        best_batch = b;
      }
    }
  }
  json.end_array();

  // 3. Tracing overhead. Flipping the order in each pair keeps either side
  // from always running second, and each pair's ratio sees the host in one
  // state. Rounds of >= 250 ms are not mostly start-up, and all-hit
  // requests are the cheapest, on which spans cost the largest share.
  constexpr int kTracePairs = 21;
  constexpr double kRoundSeconds = 0.25;
  ModelRegistry trace_registry(sel.clone());
  SelectionService traced(trace_registry, service_options(best_batch));
  (void)drive(best_threads, w.size(), repeats(traced));  // fill cache
  std::uint64_t dropped_events = 0;
  const auto round = [&](bool tracing) {
    obs::clear_trace();
    std::atomic<bool> done{false};
    std::thread drainer([&] {
      while (!done.load()) {
        std::this_thread::sleep_for(milliseconds(10));
        (void)obs::drain_trace_events();
      }
    });
    obs::set_enabled(tracing);
    const double rps =
        drive(best_threads, w.size(), repeats(traced), kRoundSeconds)
            .req_s();
    obs::set_enabled(false);
    done = true;
    drainer.join();
    dropped_events += obs::dropped_trace_events();
    return rps;
  };
  std::vector<double> untraced_rps, traced_rps, ratios;
  for (int i = 0; i < kTracePairs; ++i) {
    const bool on_first = i % 2 == 1;
    const double first = round(on_first);
    const double second = round(!on_first);
    untraced_rps.push_back(on_first ? second : first);
    traced_rps.push_back(on_first ? first : second);
    ratios.push_back(traced_rps.back() / untraced_rps.back());
  }
  const double trace_overhead_pct =
      100.0 * (1.0 - Percentiles(ratios).median());
  obs::clear_trace();  // a dump holds one traced pass, alone in the rings
  if (!f.trace_path.empty()) {
    obs::set_enabled(true);
    (void)drive(best_threads, w.size(), repeats(traced));
    obs::set_enabled(false);
    const std::int64_t n_events = obs::write_chrome_trace_file(f.trace_path);
    std::printf("wrote %lld trace events to %s (%llu dropped)\n",
                static_cast<long long>(n_events), f.trace_path.c_str(),
                static_cast<unsigned long long>(obs::dropped_trace_events()));
  }
  report(json, "tracing overhead (medians of the pairs)",
         {count("threads", best_threads), count("batch", best_batch),
          count("pairs", kTracePairs), {"round_ms", 1e3 * kRoundSeconds},
          count("dropped_span_events", dropped_events),
          {"untraced_req_s", Percentiles(untraced_rps).median()},
          {"traced_req_s", Percentiles(traced_rps).median()},
          {"overhead_pct", trace_overhead_pct}},
         "traced");

  // 4. Overload. Closed-loop clients keep ~16 requests in flight, past the
  // shed threshold (queue_capacity x watermark = 8).
  bool met_overload = false;
  {
    ModelRegistry registry(sel.clone());
    SelectionService service(registry, {.num_workers = 1,
                                        .max_batch = 4,
                                        .queue_capacity = 16,
                                        .shed_watermark = 0.5,
                                        .push_retries = 2,
                                        .push_backoff_us = 50});
    fault::ScopedFaults faults(fault::Site::kForward,
                               {.delay_prob = 1.0, .delay_us = 3'000});
    constexpr int kClients = 16;
    constexpr milliseconds kDeadline{250};
    const Drive d = drive(
        kClients, lc.corpus.size() / kClients * kClients, [&](std::size_t i) {
          (void)service.predict_index(lc.corpus[i].matrix, SpOp::kSpmv,
                                      kDeadline);
        });
    const Percentiles us(d.latency_us);
    const ServiceStats s = service.snapshot();
    met_overload = d.availability() >= 1.0 && d.other_failures == 0 &&
                   s.degraded > 0 && us.at(1.0) < 2e3 * kDeadline.count();
    report(json, "overload (1 slow worker, queue 16, deadline 250ms)",
           {count("submitted", d.sent()), count("answered", d.answered),
            count("deadline_failures", d.deadline_failures),
            {"availability", d.availability()}, count("degraded", s.degraded),
            count("shed", s.shed), count("retries", s.retries),
            count("deadline_expired", s.deadline_expired),
            {"p50_ms", us.at(0.50) / 1e3}, {"p99_ms", us.at(0.99) / 1e3},
            {"max_ms", us.at(1.0) / 1e3}},
           "overload");
  }

  // 5. Scaling.
  const unsigned hw_threads = std::thread::hardware_concurrency();
  const bool scaling_gate_applied = hw_threads >= 8;
  bool met_scaling = true;
  if (!f.replicas.empty()) {
    json.begin_array("scaling");
    double one_replica = 0.0;
    for (int r : f.replicas) {
      ModelRegistry registry(sel.clone());
      ReplicaRouter router(registry,
                           {.replicas = r,
                            .service = {.num_workers = 1,
                                        .queue_capacity = 512,
                                        .shed_watermark = 2.0},  // never shed
                            .hedge = false});
      const double req_s =
          drive(std::max(2, 2 * r), lc.corpus.size(), [&](std::size_t i) {
            (void)router.predict_index(lc.corpus[i].matrix);
          }).req_s();
      router.shutdown();
      const RouterStats s = router.snapshot();
      if (one_replica == 0.0) one_replica = req_s;
      if (scaling_gate_applied && r == 4)
        met_scaling = req_s / one_replica >= 2.5;
      report(json, "scaling (all-miss, hedging off)",
             {count("replicas", r), {"req_s", req_s},
              {"speedup_vs_1", req_s / one_replica},
              {"availability", s.availability()},
              count("fp_reused", s.total(&ServiceStats::fp_reused))},
             "");
    }
    json.end_array();
    json.field("hw_threads", static_cast<std::int64_t>(hw_threads));
    json.field("scaling_gate_applied", scaling_gate_applied);
  }

  // 6. Straggler. With hedging, keys whose primary is the straggler are
  // re-sent to the healthy sibling after the fixed 1 ms budget; without
  // it they wait out the full delay.
  const std::size_t n_straggler = std::min<std::size_t>(64, lc.corpus.size());
  const auto straggler = [&](bool hedge) {
    fault::Injector slow_replica;
    slow_replica.configure(fault::Site::kForward,
                           {.delay_prob = 1.0, .delay_us = 5'000});
    ModelRegistry registry(sel.clone());
    ReplicaRouter router(
        registry, {.replicas = 2,
                   .service = {.num_workers = 1, .shed_watermark = 2.0},
                   .hedge = hedge,
                   .hedge_fixed_us = 1'000,
                   .injectors = {&slow_replica, nullptr}});
    const Drive d = drive(1, n_straggler, [&](std::size_t i) {
      (void)router.predict_index(lc.corpus[i].matrix);
    });
    router.shutdown();
    return std::pair{Percentiles(d.latency_us), router.snapshot()};
  };
  const auto [on, on_stats] = straggler(true);
  const auto [off, off_stats] = straggler(false);
  const bool met_straggler = on.at(0.99) < off.at(0.99) &&
                             on_stats.availability() >= 1.0 &&
                             off_stats.availability() >= 1.0 &&
                             on_stats.hedge_won > 0;
  report(json, "straggler (2 replicas, replica 0 +5ms/forward)",
         {count("requests", n_straggler), {"hedged_p50_us", on.at(0.50)},
          {"hedged_p99_us", on.at(0.99)}, {"unhedged_p50_us", off.at(0.50)},
          {"unhedged_p99_us", off.at(0.99)}, count("hedges", on_stats.hedges),
          count("hedge_won", on_stats.hedge_won),
          count("misrouted", on_stats.misrouted),
          {"availability", on_stats.availability()}},
         "straggler");

  return finish(
      json, json_path,
      {{"accept_throughput_3x", "throughput >= 3x baseline", met_throughput},
       {"accept_hit_rate_90", "hit rate >= 90%", met_hits},
       {"accept_trace_overhead_5pct", "tracing overhead < 5%",
        trace_overhead_pct < 5.0},
       {"accept_overload_availability", "overload availability 100%",
        met_overload},
       {"accept_scaling_2_5x", "scaling >= 2.5x @4 replicas", met_scaling,
        f.replicas.empty() ? "SKIP"
                           : (scaling_gate_applied ? nullptr
                                                   : "SKIP (few cores)")},
       {"accept_straggler_p99", "straggler p99 win", met_straggler}});
}

// ---- --online-drift: scenario 7 -------------------------------------------

int run_online_drift(const LabeledCorpus& on_a, const FormatSelector& boot,
                     const BenchConfig& cfg, const std::string& json_path) {
  // The recovery target: the same architecture trained afresh on the
  // drifted labels, what an offline redeploy would ship.
  const auto plat_b = make_analytic_cpu(amd_a8_params());
  DNNSPMV_CHECK(boot.candidates() == plat_b->formats());
  const LabeledCorpus on_b = make_labeled_corpus(cfg, *plat_b);
  const double fresh_acc =
      selector_accuracy(train_selector(cfg, on_b, *plat_b), on_b.labeled);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < on_a.labeled.size(); ++i)
    moved += on_a.labeled[i].label != on_b.labeled[i].label;

  ModelRegistry registry(boot.clone());
  FeedbackCollector feedback({.capacity = 1024, .sample_every = 1,
                              .measure_reps = 1});
  // The probe reads the A8 model instead of timing this host's kernels:
  // the drift is scripted, so the run is deterministic and CI-sized.
  SelectionService service(
      registry, {.num_workers = 2,
                 .feedback = &feedback,
                 .feedback_probe = [&](const Csr& a) {
                   return plat_b->spmv_times(a);
                 }});
  OnlineTrainer trainer(registry, feedback,
                        {.min_batch = 32, .replay_capacity = 512});

  JsonWriter json;
  json.begin_object();
  json.field("bench", "online_drift");
  double acc = selector_accuracy(*registry.current(), on_b.labeled);
  report(json, "label drift A->B; accuracy on B",
         {count("corpus", on_b.labeled.size()),
          {"label_drift_share", static_cast<double>(moved) /
                                    static_cast<double>(on_a.labeled.size())},
          {"boot_accuracy_on_b", acc}, {"fresh_accuracy_on_b", fresh_acc}});

  // Slices of distinct matrices are all misses, so every request is
  // feedback-eligible. Rounds are bounded apart from versions: once the
  // corpus wraps, slices are all hits and publish nothing, and a model
  // that never recovers would otherwise spin here forever.
  constexpr int kMaxVersions = 5;
  constexpr std::size_t kSlice = 48;
  std::size_t submitted = 0, answered = 0;
  int versions = 0;
  bool recovered = acc >= fresh_acc - 0.01;
  json.begin_array("versions");
  for (int round = 0;
       !recovered && versions < kMaxVersions && round < 2 * kMaxVersions;
       ++round) {
    const Drive d = drive(1, kSlice, [&](std::size_t i) {
      (void)service.predict_index(
          on_b.corpus[(submitted + i) % on_b.corpus.size()].matrix);
    });
    submitted += d.sent();
    answered += d.answered;
    if (!trainer.train_once()) continue;  // slice was all cache hits
    ++versions;
    acc = selector_accuracy(*registry.current(), on_b.labeled);
    recovered = acc >= fresh_acc - 0.01;
    report(json, "published",
           {count("version", registry.version()), {"accuracy_on_b", acc}},
           "");
  }
  json.end_array();
  const double availability =
      submitted ? static_cast<double>(answered) / submitted : 1.0;

  // Hot-swap price. The fresh matrices matter: a parked worker adopts a
  // version only when a miss wakes it, and adoption is what costs (a
  // clone, plus the hot pool re-predicting under the new version key). An
  // all-hit workload would price swaps at zero, an all-miss one the CNN.
  // A 2 s cadence is aggressive for an online fine-tune loop; best of 5
  // because best of 3 still lost to ~1.5% run-to-run swings at a 1% gate.
  constexpr std::size_t kPool = 48;
  const std::vector<const Csr*> w =
      repeated(on_b.corpus, kPool, 100'000, cfg.seed);
  const std::vector<CorpusEntry> unseen =
      build_corpus({.count = static_cast<std::int64_t>(w.size() / 200),
                    .min_dim = 48,
                    .max_dim = 160,
                    .seed = cfg.seed + 1});
  std::vector<const Csr*> stream;
  for (std::size_t i = 0, k = 0; i < w.size(); ++i) {
    if (i % 200 == 199 && k < unseen.size())
      stream.push_back(&unseen[k++].matrix);
    stream.push_back(w[i]);
  }
  const auto swap_run = [&](int churn_period_ms) {
    SelectionService s(registry, service_options(8));
    (void)drive(1, kPool, [&](std::size_t i) {
      (void)s.predict_index(on_b.corpus[i].matrix);  // warm the cache
    });
    std::atomic<bool> stop{false};
    std::thread publisher([&] {
      while (churn_period_ms > 0 && !stop) {
        registry.publish(registry.current()->clone());
        for (int waited = 0; waited < churn_period_ms && !stop; waited += 5)
          std::this_thread::sleep_for(milliseconds(5));
      }
    });
    const double req_s = drive(1, stream.size(), [&](std::size_t i) {
                           (void)s.predict_index(*stream[i]);
                         }).req_s();
    stop = true;
    publisher.join();
    return req_s;
  };
  swap_run(0);  // warm-up pair, discarded
  swap_run(2000);
  double quiet = 0.0, churn = 0.0;
  for (int i = 0; i < 5; ++i) {
    quiet = std::max(quiet, swap_run(0));
    churn = std::max(churn, swap_run(2000));
  }
  const double overhead_pct = 100.0 * (1.0 - churn / quiet);

  report(json, "drift run and hot-swap price",
         {{"final_accuracy_on_b", acc}, count("versions_to_recover", versions),
          count("requests", submitted), {"availability", availability},
          count("samples_consumed", trainer.consumed()),
          {"quiet_req_s", quiet}, {"churn_req_s", churn},
          {"swap_overhead_pct", overhead_pct},
          count("churn_versions_published", registry.version())});
  return finish(
      json, json_path,
      {{"accept_drift_recovery",
        "drift recovery <= " + std::to_string(kMaxVersions) +
            " versions within 1pt",
        recovered && versions <= kMaxVersions},
       {"accept_drift_availability", "availability 100%",
        availability >= 1.0},
       {"accept_swap_overhead_1pct", "swap overhead < 1%",
        overhead_pct < 1.0}});
}

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  BenchConfig cfg = parse_common(cli);
  if (cfg.n == 900) cfg.n = 160;  // shrink the shared default: training is
                                  // only set-up here, serving is the subject
  cfg.min_dim = 48;
  cfg.max_dim = 256;
  const bool online_drift = cli.get_int("online-drift", 0) != 0;
  ServeFlags f;
  if (!online_drift) {
    f.pool = static_cast<std::size_t>(cli.get_int("pool", 48));
    f.requests = static_cast<std::size_t>(cli.get_int("requests", 1500));
    std::string threads = "1";
    for (unsigned t = 2; t <= std::thread::hardware_concurrency() && t <= 8;
         t *= 2)
      threads += "," + std::to_string(t);
    f.threads = parse_int_list(cli.get_string("threads", threads));
    f.batches = parse_int_list(cli.get_string("batch", "1,8,32"));
    const std::string replicas = cli.get_string("replicas", "1,2,4,8");
    if (replicas != "0") f.replicas = parse_int_list(replicas);
    f.trace_path = cli.get_string("trace", "");
  }
  const std::string json_path = cli.get_string(
      "json", online_drift ? "BENCH_online.json" : "BENCH_serve.json");
  cli.check_unused();

  std::printf("== bench_serve%s ==\n",
              online_drift ? " --online-drift: feedback -> trainer -> "
                             "registry -> hot swap"
                           : ": serving-tier acceptance");
  const auto xeon = make_analytic_cpu(intel_xeon_params());
  const LabeledCorpus lc = make_labeled_corpus(cfg, *xeon);
  const FormatSelector sel = train_selector(cfg, lc, *xeon);
  return online_drift ? run_online_drift(lc, sel, cfg, json_path)
                      : run_serve(lc, sel, cfg, f, json_path);
}

}  // namespace
}  // namespace dnnspmv::bench

int main(int argc, char** argv) { return dnnspmv::bench::run(argc, argv); }
