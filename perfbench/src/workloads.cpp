#include "workloads.hpp"

#include <omp.h>

#include <sys/resource.h>

#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/adaptive.hpp"
#include "core/model_registry.hpp"
#include "layers.hpp"
#include "perf/platform.hpp"
#include "serve/router.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmv.hpp"

namespace perfbench {

using namespace dnnspmv;

std::string out_path(const RunConfig& cfg, const char* kind, const char* ext) {
  return std::string(cfg.out_dir)
      .append("/")
      .append(kind)
      .append("-")
      .append(cfg.workload)
      .append(ext);
}

namespace {

constexpr int kSetupReps = 3;
// A reportable p99 needs ten samples beyond it: the untraced phase runs
// past --seconds (up to twice as long) until it has this many.
constexpr std::int64_t kMinSamples = 1010;
constexpr double kSolveTolerance = 1e-9;
constexpr std::size_t kReplayMatrices = 32;
constexpr std::int64_t kAnswerSampleEvery = 8;
constexpr std::size_t kMaxAnswerChecks = 3000;
constexpr int kSpmvIters = 100;
constexpr int kSpmmIters = 20;

// ---------------------------------------------------------------- scoring

/// Per (matrix, op, candidate) regret of a pick, precomputed from the
/// reference times so the timed phase only does a table lookup.
class Scoring {
 public:
  Scoring(std::size_t matrices, int candidates, int csr)
      : n_(candidates),
        csr_(csr),
        table_(matrices * 2 * static_cast<std::size_t>(candidates)) {}

  void set(std::size_t m, SpOp op, const std::vector<double>& times) {
    for (int i = 0; i < n_; ++i)
      table_[slot(m, op, i)] = score_pick(times, i, csr_);
  }
  const PickScore& score(std::size_t m, SpOp op, int idx) const {
    return table_[slot(m, op, idx)];
  }
  int candidates() const { return n_; }
  int csr() const { return csr_; }

 private:
  std::size_t slot(std::size_t m, SpOp op, int i) const {
    const auto n = static_cast<std::size_t>(n_);
    return (m * 2 + static_cast<std::size_t>(op)) * n +
           static_cast<std::size_t>(i);
  }
  int n_;
  int csr_;
  std::vector<PickScore> table_;
};

/// Scores matrices [first, first + mats.size()) for `op`: SpMV against the
/// analytic Xeon times the SpMV head trains on (deterministic), SpMM
/// against host-measured K=32 times. Runs before set-up, outside every
/// timed phase.
void add_references(Scoring& sc, std::size_t first,
                    const std::vector<const Csr*>& mats, SpOp op) {
  const auto xeon = make_analytic_cpu(intel_xeon_params());
  for (std::size_t i = 0; i < mats.size(); ++i)
    sc.set(first + i, op,
           op == SpOp::kSpmm
               ? measure_spmm_times(*mats[i], xeon->formats(), kSpmmCols, 3)
               : xeon->spmv_times(*mats[i]));
}

Scoring make_scoring(std::size_t matrices) {
  const auto& formats = cpu_formats();
  int csr = 0;
  while (formats[static_cast<std::size_t>(csr)] != Format::kCsr) ++csr;
  return Scoring(matrices, static_cast<int>(formats.size()), csr);
}

std::vector<const Csr*> pointers(const std::vector<Csr>& mats,
                                 std::size_t first = 0,
                                 std::size_t count = SIZE_MAX) {
  std::vector<const Csr*> out;
  for (std::size_t i = first; i < mats.size() && out.size() < count; ++i)
    out.push_back(&mats[i]);
  return out;
}

// ------------------------------------------------------------ client logs

/// A sampled answer, kept for the check against a direct predict_index.
struct Answer {
  std::int32_t m;
  SpOp op;
  std::int32_t idx;
};

/// One solve-payoff job's inline timings (traced windows only).
struct JobRecord {
  std::int32_t m;
  SpOp op;
  JobCost cost;
  double bytes;  // computed bytes of one iteration in the chosen format
};

struct ClientLog {
  std::vector<double> lat_us;
  Tally tally;
  GeoMean regret[2];  // per op
  std::vector<Answer> answers;
  std::vector<JobRecord> jobs;
  std::int64_t answered = 0;

  /// One request or job; returns whether it was answered.
  bool record(bool threw, bool picks_in_range, bool output_ok,
              double latency_us) {
    if (!tally.record(threw, picks_in_range, output_ok)) return false;
    lat_us.push_back(latency_us);
    ++answered;
    return true;
  }
  /// One pick of an answered request, scored by `ps` (what actually ran).
  /// Sampled for the mismatch check unless the model's pick is unknown.
  void record_pick(std::int32_t m, SpOp op, std::int32_t idx,
                   const PickScore& ps, bool checkable = true) {
    tally.record_pick(ps.fell_back);
    regret[static_cast<int>(op)].add(ps.ratio);
    if (picks_++ % kAnswerSampleEvery == 0 && checkable)
      answers.push_back({m, op, idx});
  }

 private:
  std::int64_t picks_ = 0;
};

// ------------------------------------------------------------ timed phase

struct Phase {
  double untraced_s = 0.0, traced_s = 0.0;
  std::int64_t untraced_answers = 0, traced_answers = 0;
  std::vector<std::int64_t> per_second;  // answers, untraced windows only
  double throughput() const {
    return untraced_s > 0 ? untraced_answers / untraced_s : 0.0;
  }
  double trace_overhead() const {
    if (traced_s <= 0 || untraced_s <= 0 || untraced_answers == 0) return 0;
    return 1.0 - (traced_answers / traced_s) / (untraced_answers / untraced_s);
  }
};

/// Closed loop: `clients` threads (client 0 is the calling thread) each run
/// step(client, i, log, spans) back to back until the phase ends. Untraced
/// runs are one window of cfg.seconds; traced runs alternate untraced and
/// traced quarters, so the trace overhead is measured in the same run.
template <class Step>
Phase run_phase(const RunConfig& cfg, int clients, Tracer& tracer,
                std::vector<ClientLog>& logs, Step&& step) {
  const auto nc = static_cast<std::size_t>(clients);
  logs.resize(nc);
  for (ClientLog& l : logs) l.lat_us.reserve(1 << 21);
  std::vector<std::int64_t> next(nc, 0);
  const int windows = cfg.trace ? 4 : 1;
  const double win_s = cfg.seconds / windows;
  const std::int64_t min_per_client =
      cfg.trace ? 0 : (kMinSamples + clients - 1) / clients;
  Phase phase;
  for (int w = 0; w < windows; ++w) {
    const bool traced = cfg.trace && w % 2 == 1;
    std::vector<SpanLog*> spans(nc, nullptr);
    if (traced)
      for (std::size_t c = 0; c < nc; ++c)
        spans[c] = &tracer.new_log("client" + std::to_string(c));
    std::int64_t before = 0;
    std::vector<std::size_t> first(nc);
    for (std::size_t c = 0; c < nc; ++c) {
      before += logs[c].answered;
      first[c] = logs[c].lat_us.size();
    }
    const auto t0 = Clock::now();
    const auto soft = t0 + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(win_s));
    const auto hard = t0 + 2 * (soft - t0);
    // ends[c][k]: size of client c's latency log at the end of second k,
    // so the log shows how steady the rate was through the phase.
    std::vector<std::vector<std::size_t>> ends(nc);
    auto body = [&](int c) {
      const auto cu = static_cast<std::size_t>(c);
      std::size_t done = first[cu];
      for (;;) {
        const auto now = Clock::now();
        // The previous step's answers belong to the second `now` is in.
        const auto sec = static_cast<std::size_t>(micros(t0, now) * 1e-6);
        while (ends[cu].size() < sec) ends[cu].push_back(done);
        done = logs[cu].lat_us.size();
        if (now >= hard ||
            (now >= soft && logs[cu].tally.attempted >= min_per_client))
          break;
        step(c, next[cu]++, logs[cu], spans[cu]);
      }
    };
    std::vector<std::thread> threads;
    for (int c = 1; c < clients; ++c) threads.emplace_back(body, c);
    body(0);
    for (std::thread& t : threads) t.join();
    const double s = micros(t0, Clock::now()) * 1e-6;
    std::int64_t after = 0;
    for (const ClientLog& l : logs) after += l.answered;
    (traced ? phase.traced_s : phase.untraced_s) += s;
    (traced ? phase.traced_answers : phase.untraced_answers) += after - before;
    if (traced) continue;
    for (std::size_t k = 0; k < static_cast<std::size_t>(s); ++k) {
      std::int64_t answers = 0;
      for (std::size_t c = 0; c < nc; ++c)
        if (k < ends[c].size())
          answers += static_cast<std::int64_t>(
              ends[c][k] - (k == 0 ? first[c] : ends[c][k - 1]));
      phase.per_second.push_back(answers);
    }
  }
  return phase;
}

// ------------------------------------------------------- answer checking

struct MismatchCount {
  std::int64_t checked = 0;
  std::int64_t mismatched = 0;
  double frac() const {
    return checked == 0 ? 0.0
                        : static_cast<double>(mismatched) /
                              static_cast<double>(checked);
  }
};

/// Answers against FormatSelector::predict_index on the deployed model. A
/// differing answer is a fingerprint collision (a cached answer for another
/// matrix) or a degraded answer.
MismatchCount check_answers(const std::vector<ClientLog>& logs,
                            const std::vector<const Csr*>& mats,
                            const FormatSelector& model) {
  std::size_t total = 0;
  for (const ClientLog& l : logs) total += l.answers.size();
  const std::size_t stride = std::max<std::size_t>(1, total / kMaxAnswerChecks);
  std::map<std::pair<std::int32_t, SpOp>, std::int32_t> direct;
  MismatchCount mc;
  std::size_t seen = 0;
  for (const ClientLog& l : logs)
    for (const Answer& a : l.answers) {
      if (seen++ % stride != 0) continue;
      auto d = direct.find({a.m, a.op});
      if (d == direct.end())
        d = direct
                .emplace(std::make_pair(a.m, a.op),
                         model.predict_index(
                             *mats[static_cast<std::size_t>(a.m)], a.op))
                .first;
      ++mc.checked;
      if (d->second != a.idx) ++mc.mismatched;
    }
  return mc;
}

// ------------------------------------------------------ report assembly

struct Merged {
  Tally tally;
  GeoMean regret, regret_op[2];
};

Merged merge_logs(const std::vector<ClientLog>& logs, Report& report) {
  Merged m;
  for (const ClientLog& l : logs) {
    m.tally.merge(l.tally);
    for (int op = 0; op < 2; ++op) {
      m.regret.merge(l.regret[op]);
      m.regret_op[op].merge(l.regret[op]);
    }
    report.latencies_us.insert(report.latencies_us.end(), l.lat_us.begin(),
                               l.lat_us.end());
  }
  report.tally = m.tally;
  report.regret = m.regret;
  return m;
}

/// Process peak resident set size so far, in MB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : median(v);
}

/// Span-fed per-layer metrics: the median duration of each span name.
constexpr const char* kSpanMetrics[] = {
    "sparse.stats_us",          "sparse.convert_spmv_us",
    "sparse.convert_spmm_us",   "sparse.spmv_iter_us",
    "sparse.spmm_iter_us",      "sparse.csr_iter_us",
    "sparse.csr_spmm_iter_us",  "serve.fingerprint_us",
    "serve.feedback_probe_us",  "core.rep_build_us",
    "core.forward_spmv_us",     "core.forward_spmv_batch_us",
    "core.forward_spmm_us",     "core.forward_spmm_batch_us",
    "core.forward_pair_us",     "core.select_spmv_us",
    "core.select_spmm_us",      "core.train_round_us",
};

ServeCounters router_counters(ReplicaRouter& r) {
  ServeCounters sum;
  for (std::size_t i = 0; i < r.num_replicas(); ++i)
    sum = sum + ServeCounters::of(r.replica(i));
  return sum;
}

/// Everything the traced run reports, gathered in one place so every
/// workload prints the same names.
struct LayerInputs {
  const FormatSelector* model = nullptr;
  std::vector<const Csr*> sample;  // the workload's matrices to replay on
  bool replay_solve = true;        // false: timed inline (solve-payoff)
  double hit_rate = 0.0;
  double degraded_frac = 0.0;
  double hedge_frac = 0.0, hedge_won_frac = 0.0;
  std::vector<JobCost> jobs;  // inline job costs (solve-payoff)
  LayerValues values;         // inline computed-bytes rates
};

void fill_layers(Report& report, Tracer& tracer, LayerInputs& in,
                 const Merged& merged, const Phase& phase,
                 const MismatchCount& mismatch) {
  SpanLog& log = tracer.new_log("replay");
  LayerValues& values = in.values;
  const MissReplay misses = replay_misses(*in.model, in.sample);
  replay_selection(*in.model, in.sample,
                   std::max(1, static_cast<int>(
                                   std::lround(misses.serve.batch_mean()))),
                   log);
  if (in.replay_solve) {
    replay_solve(*in.model, in.sample, SpOp::kSpmv, kSpmvIters, log, values,
                 in.jobs);
    replay_solve(*in.model, in.sample, SpOp::kSpmm, kSpmmIters, log, values,
                 in.jobs);
  }
  const OnlineReplay online = replay_online(*in.model, in.sample, log);

  auto& L = report.layers;
  for (const char* name : kSpanMetrics)
    L[name] = median_or_zero(tracer.durations_us(name));
  L["sparse.kernel_gbps_computed"] =
      median_or_zero(values["sparse.kernel_gbps_computed"]);

  L["serve.hit_rate"] = in.hit_rate;
  L["serve.degraded_frac"] = in.degraded_frac;
  L["serve.queue_wait_us"] = misses.serve.queue_wait_us();
  L["serve.batch_mean"] = misses.serve.batch_mean();
  L["serve.handoff_us"] =
      median_or_zero(misses.latency_us) - L["sparse.stats_us"] -
      L["core.rep_build_us"] - L["core.forward_spmv_us"];
  L["serve.answer_mismatch_frac"] = mismatch.frac();
  L["serve.hedge_frac"] = in.hedge_frac;
  L["serve.hedge_won_frac"] = in.hedge_won_frac;
  L["serve.feedback_dropped_frac"] = online.feedback_dropped_frac;
  L["serve.model_swaps"] = online.model_swaps;

  L["core.payoff_vs_csr"] = payoff_vs_csr(in.jobs);
  const Breakeven be = summarize_breakeven(in.jobs);
  // -1 marks "no job broke even" (JSON has no infinity).
  L["core.breakeven_iters"] =
      std::isfinite(be.median_iters) ? be.median_iters : -1.0;
  L["core.never_breakeven_frac"] = be.never_frac;
  L["core.fallback_frac"] = merged.tally.fallback_frac();
  // 0 marks an op the workload never asks for (a regret is >= 1).
  L["core.regret_spmv"] =
      merged.regret_op[0].count() > 0 ? merged.regret_op[0].value() : 0.0;
  L["core.regret_spmm"] =
      merged.regret_op[1].count() > 0 ? merged.regret_op[1].value() : 0.0;
  L["core.versions_published"] = online.versions_published;
  std::vector<double> labels, fit, load, deploy;
  for (const SetupTimes& t : report.setups) {
    labels.push_back(t.labels_s);
    fit.push_back(t.fit_s);
    load.push_back(t.load_s);
    deploy.push_back(t.deploy_s);
  }
  L["core.labels_s"] = median(labels);
  L["core.fit_s"] = median(fit);
  L["core.load_s"] = median(load);
  L["core.deploy_s"] = median(deploy);
  L["obs.trace_overhead_frac"] = phase.trace_overhead();
  if (tracer.dropped() > 0)
    report.notes.push_back("trace spans dropped past the buffer cap: " +
                           std::to_string(tracer.dropped()));
}

void finish(Report& report, const Phase& phase, const MismatchCount& mc) {
  report.throughput_rps = phase.throughput();
  std::string rates = "answers per second:";
  for (std::int64_t n : phase.per_second)
    rates.append(" ").append(std::to_string(n));
  report.notes.push_back(std::move(rates));
  report.notes.push_back(
      std::string("answers checked against direct predict_index: ")
          .append(std::to_string(mc.checked))
          .append(", mismatched: ")
          .append(std::to_string(mc.mismatched)));
}

void write_trace(const Tracer& tracer, const RunConfig& cfg, Report& report) {
  const std::string path = out_path(cfg, "trace", ".json");
  const bool ok = tracer.write_chrome_trace(path);
  report.checks_passed = report.checks_passed && ok;
  report.notes.push_back((ok ? "chrome trace: " : "could not write ") + path);
}

std::string weight_path(const RunConfig& cfg) {
  return out_path(cfg, "model", ".bin");
}

// ============================================================ hot-repeat

struct RouterDeployment {
  ModelRegistry registry;
  ReplicaRouter router;
  RouterDeployment(FormatSelector model, const RouterOptions& opts)
      : registry(std::move(model)), router(registry, opts) {}
};

Report run_hot_repeat(const RunConfig& cfg, const Budget& budget) {
  constexpr std::int32_t kPool = 512;
  constexpr std::int64_t kOrder = 1 << 20;
  const ModelInputs model_in = make_model_inputs(cfg.seed);
  const std::vector<Csr> pool =
      structure_pool(kPool, 48, 256, sub_seed(cfg.seed, 10));
  const std::vector<const Csr*> mats = pointers(pool);
  Rng rng(sub_seed(cfg.seed, 11));
  const std::vector<std::int32_t> order =
      zipf_order(static_cast<std::int32_t>(pool.size()),
                 kOrder * budget.clients, 4096, rng);
  Scoring sc = make_scoring(mats.size());
  add_references(sc, 0, mats, SpOp::kSpmv);

  Report report;
  std::unique_ptr<RouterDeployment> dep;
  report.setups = repeated_setup(
      model_in, cfg.seed, weight_path(cfg), kSetupReps, budget.omp_team, dep,
      [&](FormatSelector model) {
        RouterOptions opts;
        opts.replicas = 2;
        opts.service.num_workers = budget.workers / opts.replicas;
        auto d = std::make_unique<RouterDeployment>(std::move(model), opts);
        for (const Csr* a : mats) d->router.predict_index(*a);  // warm-up
        return d;
      });
  ReplicaRouter& router = dep->router;
  const ServeCounters serve0 = router_counters(router);
  const RouterStats rs0 = router.snapshot();

  Tracer tracer;
  std::vector<ClientLog> logs;
  const Phase phase = run_phase(
      cfg, budget.clients, tracer, logs,
      [&](int c, std::int64_t i, ClientLog& log, SpanLog* spans) {
        const std::int32_t m =
            order[static_cast<std::size_t>(c * kOrder + i % kOrder)];
        std::int32_t idx = -1;
        bool threw = false;
        const auto t0 = Clock::now();
        try {
          idx = router.submit(pool[static_cast<std::size_t>(m)]).get();
        } catch (...) {
          threw = true;
        }
        const auto t1 = Clock::now();
        if (spans) spans->add("request", (std::int64_t{c} << 40) | i, t0, t1);
        if (log.record(threw, in_range(idx, sc.candidates()), true,
                       micros(t0, t1)))
          log.record_pick(m, SpOp::kSpmv, idx,
                          sc.score(static_cast<std::size_t>(m), SpOp::kSpmv,
                                   idx));
      });
  report.peak_rss_mb = peak_rss_mb();
  const ServeCounters serve = router_counters(router) - serve0;
  const RouterStats rs = router.snapshot();
  const std::shared_ptr<const FormatSelector> model = dep->registry.current();
  const Merged merged = merge_logs(logs, report);
  const MismatchCount mc = check_answers(logs, mats, *model);
  finish(report, phase, mc);
  if (cfg.trace) {
    const double reqs = static_cast<double>(rs.requests - rs0.requests);
    LayerInputs in;
    in.model = model.get();
    in.sample = pointers(pool, 0, kReplayMatrices);
    in.hit_rate = serve.hit_rate();
    in.degraded_frac =
        serve.requests > 0 ? serve.degraded / serve.requests : 0.0;
    in.hedge_frac = reqs > 0 ? (rs.hedges - rs0.hedges) / reqs : 0.0;
    in.hedge_won_frac = reqs > 0 ? (rs.hedge_won - rs0.hedge_won) / reqs : 0.0;
    fill_layers(report, tracer, in, merged, phase, mc);
    write_trace(tracer, cfg, report);
  }
  report.notes.push_back("router hedges during the phase: " +
                         std::to_string(rs.hedges - rs0.hedges));
  return report;
}

// ========================================================== solve-payoff

struct SolveDeployment {
  FormatSelector model;
  // Benchmark-scoped and smaller than the job pool, so every job selects.
  PredictionCache cache{16, 1};
  explicit SolveDeployment(FormatSelector m) : model(std::move(m)) {}
};

Report run_solve_payoff(const RunConfig& cfg, const Budget& budget) {
  constexpr std::int64_t kJobs = 96;  // per op
  const ModelInputs model_in = make_model_inputs(cfg.seed);
  const std::vector<Csr> spmv_pool =
      payoff_spmv_pool(kJobs, 85'000, sub_seed(cfg.seed, 30));
  const std::vector<Csr> spmm_pool =
      payoff_spmm_pool(kJobs, 40'000, sub_seed(cfg.seed, 31));
  // One matrix index space: SpMV jobs first, then SpMM jobs.
  std::vector<const Csr*> mats = pointers(spmv_pool);
  for (const Csr* a : pointers(spmm_pool)) mats.push_back(a);
  const auto is_spmm = [&](std::size_t m) { return m >= spmv_pool.size(); };

  // Dense operands and the CSR results every job's output is checked
  // against.
  omp_set_num_threads(budget.omp_team);
  Rng rng(sub_seed(cfg.seed, 32));
  std::vector<std::vector<double>> x(mats.size()), ref(mats.size());
  std::size_t max_out = 0;
  for (std::size_t m = 0; m < mats.size(); ++m) {
    const Csr& a = *mats[m];
    const int k = is_spmm(m) ? kSpmmCols : 1;
    x[m] = dense_operand(static_cast<std::size_t>(a.cols) * k, rng);
    ref[m].assign(static_cast<std::size_t>(a.rows) * k, 0.0);
    if (is_spmm(m))
      spmm_csr(a, x[m], ref[m], k);
    else
      spmv_csr(a, x[m], ref[m]);
    max_out = std::max(max_out, ref[m].size());
  }
  Scoring sc = make_scoring(mats.size());
  add_references(sc, 0, pointers(spmv_pool), SpOp::kSpmv);
  add_references(sc, spmv_pool.size(), pointers(spmm_pool), SpOp::kSpmm);

  // One solve of matrix `m`: select, convert, iterate; the output is
  // checked against CSR. SpMV runs the library's AdaptiveSpmv; SpMM calls
  // predict, convert and spmm directly. With `spans`, every layer call is
  // traced under `id` and `rec` receives the solve's cost split.
  struct Outcome {
    std::int32_t idx = -1;  // the model's pick (CSR's if unknown)
    bool fell_back = false;
    bool pick_known = true;
    bool output_ok = false;
    bool cache_hit = false;
  };
  std::vector<double> y(max_out);
  auto run_solve = [&](SolveDeployment& d, std::size_t m, std::int64_t id,
                       SpanLog* spans, JobRecord* rec) {
    const Csr& a = *mats[m];
    const std::span<double> out(y.data(), ref[m].size());
    Outcome o;
    JobCost cost;
    double bytes = 0.0;
    Clock::time_point s, e;
    if (!is_spmm(m)) {
      s = Clock::now();
      const AdaptiveSpmv solver(d.model, a, &d.cache);
      o.cache_hit = solver.cache_hit();
      o.fell_back = solver.fell_back();
      o.pick_known = !o.fell_back;
      o.idx = o.fell_back ? static_cast<std::int32_t>(
                                d.model.candidate_index(Format::kCsr))
                          : d.model.candidate_index(solver.format());
      cost = {solver.prediction_seconds(), solver.conversion_seconds(), 0.0,
              0.0, kSpmvIters};
      bytes = computed_bytes(solver.bytes(), a, 1);
      if (spans) {
        // AdaptiveSpmv times its own selection and conversion; lay them
        // out as spans from the start of its construction.
        const auto sel = s + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(cost.select_s));
        spans->add("core.select_spmv_us", id, s, sel);
        spans->add("sparse.convert_spmv_us", id, sel,
                   sel + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(cost.convert_s)));
      }
      for (int it = 0; it < kSpmvIters; ++it) {
        if (spans) s = Clock::now();
        solver.apply(x[m], out);
        if (spans) {
          e = Clock::now();
          spans->add("sparse.spmv_iter_us", id, s, e);
          cost.iter_s += micros(s, e) * 1e-6;
        }
      }
    } else {
      s = Clock::now();
      const Format pick = d.model.predict(a, SpOp::kSpmm);
      e = Clock::now();
      if (spans) spans->add("core.select_spmm_us", id, s, e);
      cost.select_s = micros(s, e) * 1e-6;
      o.idx = d.model.candidate_index(pick);
      std::optional<AnyFormatMatrix> stored = AnyFormatMatrix::convert(a, pick);
      o.fell_back = !stored;
      if (o.fell_back) stored = AnyFormatMatrix::convert(a, Format::kCsr);
      s = Clock::now();
      if (spans) spans->add("sparse.convert_spmm_us", id, e, s);
      cost.convert_s = micros(e, s) * 1e-6;
      cost.iters = kSpmmIters;
      bytes = computed_bytes(stored->bytes(), a, kSpmmCols);
      for (int it = 0; it < kSpmmIters; ++it) {
        if (spans) s = Clock::now();
        stored->spmm(x[m], out, kSpmmCols);
        if (spans) {
          e = Clock::now();
          spans->add("sparse.spmm_iter_us", id, s, e);
          cost.iter_s += micros(s, e) * 1e-6;
        }
      }
    }
    o.output_ok = outputs_match(out.data(), ref[m].data(), out.size(),
                                kSolveTolerance);
    if (rec) {
      cost.iter_s /= static_cast<double>(cost.iters);
      *rec = {static_cast<std::int32_t>(m),
              is_spmm(m) ? SpOp::kSpmm : SpOp::kSpmv, cost, bytes};
    }
    return o;
  };

  Report report;
  std::unique_ptr<SolveDeployment> dep;
  report.setups = repeated_setup(
      model_in, cfg.seed, weight_path(cfg), kSetupReps, budget.omp_team, dep,
      [&](FormatSelector model) {
        auto d = std::make_unique<SolveDeployment>(std::move(model));
        run_solve(*d, 0, 0, nullptr, nullptr);  // warm-up: one job
        run_solve(*d, spmv_pool.size(), 0, nullptr, nullptr);
        d->cache.clear();
        return d;
      });

  Tracer tracer;
  std::vector<ClientLog> logs;
  std::int64_t cache_hits = 0;
  const Phase phase = run_phase(
      cfg, 1, tracer, logs,
      [&](int, std::int64_t i, ClientLog& log, SpanLog* spans) {
        // Each job solves one SpMV and one SpMM matrix, cycling through
        // both pools, so job times have one mode rather than one per op.
        const std::size_t ms[2] = {static_cast<std::size_t>(i % kJobs),
                                   spmv_pool.size() +
                                       static_cast<std::size_t>(i % kJobs)};
        const SpOp ops[2] = {SpOp::kSpmv, SpOp::kSpmm};
        Outcome o[2];
        JobRecord rec[2]{};
        bool threw = false;
        const auto t0 = Clock::now();
        try {
          for (int k = 0; k < 2; ++k)
            o[k] = run_solve(*dep, ms[k], i, spans, spans ? &rec[k] : nullptr);
        } catch (...) {
          threw = true;
        }
        const auto t1 = Clock::now();
        cache_hits += o[0].cache_hit;
        if (spans && !threw) {
          spans->add("job", i, t0, t1);
          log.jobs.insert(log.jobs.end(), rec, rec + 2);
        }
        const int n = sc.candidates();
        if (!log.record(threw, in_range(o[0].idx, n) && in_range(o[1].idx, n),
                        o[0].output_ok && o[1].output_ok, micros(t0, t1)))
          return;
        for (int k = 0; k < 2; ++k) {
          // A refused pick runs, and is scored, as CSR.
          PickScore ps = sc.score(ms[k], ops[k],
                                  o[k].fell_back ? sc.csr() : o[k].idx);
          ps.fell_back = o[k].fell_back;
          log.record_pick(static_cast<std::int32_t>(ms[k]), ops[k], o[k].idx,
                          ps, o[k].pick_known);
        }
      });
  report.peak_rss_mb = peak_rss_mb();
  const Merged merged = merge_logs(logs, report);
  const MismatchCount mc = check_answers(logs, mats, dep->model);
  finish(report, phase, mc);
  if (cfg.trace) {
    // Always-CSR iteration times of every job matrix, for the payoff.
    SpanLog& csr_log = tracer.new_log("csr-replay");
    std::vector<double> csr_iter_s(mats.size());
    for (std::size_t m = 0; m < mats.size(); ++m) {
      const std::span<double> out(y.data(), ref[m].size());
      std::vector<double> us;
      for (int it = 0; it < (is_spmm(m) ? kSpmmIters : kSpmvIters); ++it) {
        const auto s = Clock::now();
        if (is_spmm(m))
          spmm_csr(*mats[m], x[m], out, kSpmmCols);
        else
          spmv_csr(*mats[m], x[m], out);
        const auto e = Clock::now();
        csr_log.add(
            is_spmm(m) ? "sparse.csr_spmm_iter_us" : "sparse.csr_iter_us",
            static_cast<std::int64_t>(m), s, e);
        us.push_back(micros(s, e));
      }
      csr_iter_s[m] = median(us) * 1e-6;
    }
    LayerInputs in;
    in.model = &dep->model;
    for (const JobRecord& r : logs[0].jobs) {
      JobCost c = r.cost;
      c.csr_iter_s = csr_iter_s[static_cast<std::size_t>(r.m)];
      in.jobs.push_back(c);
      if (r.op == SpOp::kSpmv)
        in.values["sparse.kernel_gbps_computed"].push_back(r.bytes / c.iter_s *
                                                           1e-9);
    }
    in.sample = pointers(spmv_pool, 0, 8);
    for (const Csr* a : pointers(spmm_pool, 0, 8)) in.sample.push_back(a);
    in.replay_solve = false;
    in.hit_rate = merged.tally.attempted > 0
                      ? static_cast<double>(cache_hits) /
                            static_cast<double>(merged.tally.attempted)
                      : 0.0;
    fill_layers(report, tracer, in, merged, phase, mc);
    write_trace(tracer, cfg, report);
  }
  return report;
}

}  // namespace

Budget workload_budget(const std::string& workload) {
  if (workload == "hot-repeat")  // 2 clients + 2 replicas x 1 worker x 1
    return {.clients = 2, .workers = 2, .omp_team = 1};
  // 1 client running the kernels itself, with a team of 1: a wider team
  // waits at every iteration's barrier for its slowest thread, which on a
  // shared VM turns hypervisor steal into multi-ms stalls.
  if (workload == "solve-payoff")
    return {.clients = 1, .workers = 0, .omp_team = 1};
  throw std::invalid_argument("unknown workload: " + workload);
}

Report run_workload(const RunConfig& cfg, const Budget& budget) {
  return cfg.workload == "hot-repeat" ? run_hot_repeat(cfg, budget)
                                      : run_solve_payoff(cfg, budget);
}

}  // namespace perfbench
