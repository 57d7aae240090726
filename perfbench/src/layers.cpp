#include "layers.hpp"

#include "core/adaptive.hpp"
#include "core/model_registry.hpp"
#include "core/online.hpp"
#include "model.hpp"
#include "serve/fingerprint.hpp"
#include "obs/metrics.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmv.hpp"
#include "sparse/stats.hpp"
#include "tensor/arena.hpp"

namespace perfbench {

using namespace dnnspmv;

namespace {

// Runs `fn` and records it as a span named `name`.
template <class Fn>
void timed(SpanLog& log, const char* name, std::int64_t id, Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  log.add(name, id, t0, Clock::now());
}

}  // namespace

double computed_bytes(std::int64_t matrix_bytes, const Csr& a, int k) {
  return static_cast<double>(matrix_bytes) +
         8.0 * k * (static_cast<double>(a.rows) + a.cols);
}

void replay_selection(const FormatSelector& model,
                      const std::vector<const Csr*>& mats, int batch,
                      SpanLog& log) {
  std::vector<std::vector<Tensor>> reps(mats.size());
  for (std::size_t i = 0; i < mats.size(); ++i) {
    const Csr& a = *mats[i];
    const auto id = static_cast<std::int64_t>(i);
    MatrixStats st;
    timed(log, "sparse.stats_us", id, [&] { st = compute_stats(a); });
    timed(log, "serve.fingerprint_us", id,
          [&] { (void)structural_fingerprint(st); });
    timed(log, "core.rep_build_us", id, [&] {
      model.rep_builder().build_into(a, thread_arena(), reps[i]);
    });
    const std::vector<std::vector<Tensor>> one = {reps[i]};
    timed(log, "core.forward_spmv_us", id,
          [&] { model.predict_prepared(one, nullptr, SpOp::kSpmv); });
    timed(log, "core.forward_spmm_us", id,
          [&] { model.predict_prepared(one, nullptr, SpOp::kSpmm); });
    timed(log, "core.forward_pair_us", id, [&] {
      model.predict_prepared(one, nullptr, SpOp::kSpmv);
      model.predict_prepared(one, nullptr, SpOp::kSpmm);
    });
  }
  const auto b = static_cast<std::size_t>(std::max(1, batch));
  for (std::size_t i = 0; i + b <= reps.size(); i += b) {
    const std::vector<std::vector<Tensor>> group(
        reps.begin() + static_cast<std::ptrdiff_t>(i),
        reps.begin() + static_cast<std::ptrdiff_t>(i + b));
    const auto id = static_cast<std::int64_t>(i);
    timed(log, "core.forward_spmv_batch_us", id,
          [&] { model.predict_prepared(group, nullptr, SpOp::kSpmv); });
    timed(log, "core.forward_spmm_batch_us", id,
          [&] { model.predict_prepared(group, nullptr, SpOp::kSpmm); });
  }
}

void replay_solve(const FormatSelector& model,
                  const std::vector<const Csr*>& mats, SpOp op, int iters,
                  SpanLog& log, LayerValues& values,
                  std::vector<JobCost>& jobs) {
  const bool spmm = op == SpOp::kSpmm;
  const int k = spmm ? kSpmmCols : 1;
  // Capacity-1 cache: every matrix misses, but selection pays the
  // fingerprint pass exactly as a cached AdaptiveSpmv does.
  PredictionCache cache(1, 1);
  for (std::size_t i = 0; i < mats.size(); ++i) {
    const Csr& a = *mats[i];
    const auto id = static_cast<std::int64_t>(i);
    std::vector<double> x(static_cast<std::size_t>(a.cols) * k, 1.0);
    std::vector<double> y(static_cast<std::size_t>(a.rows) * k, 0.0);
    JobCost job;
    job.iters = iters;
    std::vector<double> iter_us, csr_us;
    std::int64_t stored_bytes = 0;
    if (!spmm) {
      const auto t0 = Clock::now();
      const AdaptiveSpmv solver(model, a, &cache);
      job.select_s = solver.prediction_seconds();
      job.convert_s = solver.conversion_seconds();
      const auto sel_end =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(job.select_s));
      log.add("core.select_spmv_us", id, t0, sel_end);
      log.add("sparse.convert_spmv_us", id, sel_end,
              sel_end + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(job.convert_s)));
      stored_bytes = solver.bytes();
      for (int it = 0; it < iters; ++it) {
        const auto s = Clock::now();
        solver.apply(x, y);
        const auto e = Clock::now();
        log.add("sparse.spmv_iter_us", id, s, e);
        iter_us.push_back(micros(s, e));
      }
      for (int it = 0; it < iters; ++it) {
        const auto s = Clock::now();
        spmv_csr(a, x, y);
        const auto e = Clock::now();
        log.add("sparse.csr_iter_us", id, s, e);
        csr_us.push_back(micros(s, e));
      }
    } else {
      auto s = Clock::now();
      const Format pick = model.predict(a, SpOp::kSpmm);
      auto e = Clock::now();
      log.add("core.select_spmm_us", id, s, e);
      job.select_s = micros(s, e) * 1e-6;
      std::optional<AnyFormatMatrix> stored = AnyFormatMatrix::convert(a, pick);
      if (!stored) stored = AnyFormatMatrix::convert(a, Format::kCsr);
      s = Clock::now();
      log.add("sparse.convert_spmm_us", id, e, s);
      job.convert_s = micros(e, s) * 1e-6;
      stored_bytes = stored->bytes();
      for (int it = 0; it < iters; ++it) {
        s = Clock::now();
        stored->spmm(x, y, k);
        e = Clock::now();
        log.add("sparse.spmm_iter_us", id, s, e);
        iter_us.push_back(micros(s, e));
      }
      for (int it = 0; it < iters; ++it) {
        s = Clock::now();
        spmm_csr(a, x, y, k);
        e = Clock::now();
        log.add("sparse.csr_spmm_iter_us", id, s, e);
        csr_us.push_back(micros(s, e));
      }
    }
    job.iter_s = median(iter_us) * 1e-6;
    job.csr_iter_s = median(csr_us) * 1e-6;
    jobs.push_back(job);
    if (!spmm)
      values["sparse.kernel_gbps_computed"].push_back(
          computed_bytes(stored_bytes, a, 1) / job.iter_s * 1e-9);
  }
}

ServeCounters ServeCounters::of(const SelectionService& s) {
  const ServiceStats st = s.snapshot();
  const std::string& prefix = s.metrics().prefix();
  const obs::Histogram::Snapshot wait =
      s.metrics().registry().snapshot(prefix).histogram_or(prefix +
                                                           "queue_wait_us");
  return {static_cast<double>(st.requests),
          static_cast<double>(st.cache_hits),
          static_cast<double>(st.cache_misses),
          static_cast<double>(st.degraded),
          static_cast<double>(st.batches),
          static_cast<double>(st.batched_samples),
          static_cast<double>(st.model_swaps),
          wait.sum,
          static_cast<double>(wait.count)};
}

ServeCounters ServeCounters::operator+(const ServeCounters& o) const {
  return {requests + o.requests, hits + o.hits,       misses + o.misses,
          degraded + o.degraded, batches + o.batches, batched + o.batched,
          swaps + o.swaps,       wait_sum + o.wait_sum,
          wait_count + o.wait_count};
}

ServeCounters ServeCounters::operator-(const ServeCounters& o) const {
  return {requests - o.requests, hits - o.hits,       misses - o.misses,
          degraded - o.degraded, batches - o.batches, batched - o.batched,
          swaps - o.swaps,       wait_sum - o.wait_sum,
          wait_count - o.wait_count};
}

MissReplay replay_misses(const FormatSelector& model,
                         const std::vector<const Csr*>& mats) {
  ModelRegistry registry(model.clone());
  SelectionService service(registry, {.num_workers = 1});
  MissReplay r;
  for (const Csr* a : mats) {
    const auto t0 = Clock::now();
    service.predict_index(*a);
    r.latency_us.push_back(micros(t0, Clock::now()));
  }
  r.serve = ServeCounters::of(service);
  return r;
}

OnlineReplay replay_online(const FormatSelector& model,
                           const std::vector<const Csr*>& mats,
                           SpanLog& log) {
  FeedbackCollector feedback({.sample_every = 1});
  for (std::size_t i = 0; i < mats.size(); ++i) {
    FeedbackSample sample;
    sample.fingerprint = structural_fingerprint(*mats[i]);
    sample.inputs = model.prepare_inputs(*mats[i]);
    timed(log, "serve.feedback_probe_us", static_cast<std::int64_t>(i), [&] {
      sample.format_times =
          measure_format_times(*mats[i], model.candidates(),
                               feedback.options().measure_reps);
    });
    feedback.publish(std::move(sample));
  }
  ModelRegistry registry(model.clone());
  SelectionService service(registry, {.num_workers = 1});
  OnlineTrainer trainer(registry, feedback, {.min_batch = mats.size()});
  timed(log, "core.train_round_us", 0, [&] { trainer.train_once(); });
  service.predict_index(*mats.front());  // adopts the new version
  OnlineReplay r;
  r.versions_published = static_cast<double>(trainer.published());
  r.model_swaps = static_cast<double>(service.snapshot().model_swaps);
  const double sent =
      static_cast<double>(feedback.published() + feedback.dropped());
  r.feedback_dropped_frac = sent > 0 ? feedback.dropped() / sent : 0.0;
  return r;
}

}  // namespace perfbench
