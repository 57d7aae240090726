#include "serve/router.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"
#include "serve/fingerprint.hpp"

namespace dnnspmv {
namespace {

// Salts decorrelate ring placement and key lookup from the fingerprint
// bits the LRU shards already consume.
constexpr std::uint64_t kRingPointSalt = 0x9d2c5680ca876f1dULL;
constexpr std::uint64_t kRingLookupSalt = 0x6a09e667f3bcc909ULL;

constexpr int kVnodes = 128;  // ring points per replica

// Adaptive hedge budget: this quantile of the CNN waits, clamped.
constexpr double kHedgeQuantile = 0.95;
constexpr std::int64_t kHedgeMinUs = 500;
constexpr std::int64_t kHedgeMaxUs = 100'000;

std::future<std::int32_t> shutdown_future() {
  std::promise<std::int32_t> failed;
  failed.set_exception(std::make_exception_ptr(DnnspmvError(
      errc::service_shutdown, "ReplicaRouter is shut down; request rejected")));
  return failed.get_future();
}

}  // namespace

// ---------------------------------------------------------------- HashRing

HashRing::HashRing(int replicas) : replicas_(replicas) {
  DNNSPMV_CHECK_ERRC(replicas >= 1, errc::invalid_argument,
                     "HashRing needs at least one replica");
  ring_.reserve(static_cast<std::size_t>(replicas) * kVnodes);
  for (int r = 0; r < replicas; ++r) {
    const std::uint64_t seed =
        hash_combine(kRingPointSalt, static_cast<std::uint64_t>(r));
    for (int v = 0; v < kVnodes; ++v)
      ring_.emplace_back(hash_combine(seed, static_cast<std::uint64_t>(v)), r);
  }
  std::sort(ring_.begin(), ring_.end());
}

std::size_t HashRing::position(std::uint64_t fp) const {
  const std::uint64_t h = splitmix64(fp ^ kRingLookupSalt);
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const std::pair<std::uint64_t, int>& p, std::uint64_t key) {
        return p.first < key;
      });
  // Clockwise successor; past the last point wraps to the first.
  return it == ring_.end() ? 0
                           : static_cast<std::size_t>(it - ring_.begin());
}

int HashRing::primary(std::uint64_t fp) const {
  return ring_[position(fp)].second;
}

int HashRing::sibling(std::uint64_t fp) const {
  const std::size_t pos = position(fp);
  const int first = ring_[pos].second;
  if (replicas_ == 1) return first;
  for (std::size_t step = 1; step < ring_.size(); ++step) {
    const int r = ring_[(pos + step) % ring_.size()].second;
    if (r != first) return r;
  }
  return first;  // unreachable with >= 2 replicas
}

// ------------------------------------------------------------- RouterStats

std::uint64_t RouterStats::total(std::uint64_t ServiceStats::*field) const {
  std::uint64_t n = 0;
  for (const ServiceStats& s : replica) n += s.*field;
  return n;
}

double RouterStats::hit_rate() const {
  const std::uint64_t hits = total(&ServiceStats::cache_hits);
  const std::uint64_t seen = hits + total(&ServiceStats::cache_misses);
  return seen == 0 ? 0.0
                   : static_cast<double>(hits) / static_cast<double>(seen);
}

// ----------------------------------------------------------- ReplicaRouter

/// Shared state of one routed request. The promise is resolved exactly
/// once under `mu`: the first dispatch to answer wins, errors are held in
/// `first_err` until no dispatch is left AND no hedge can still be issued.
struct ReplicaRouter::HedgeState {
  std::mutex mu;
  std::promise<std::int32_t> result;
  bool resolved = false;
  int pending = 0;         // dispatches whose outcome hasn't arrived yet
  bool may_hedge = false;  // a hedge might still be issued for this request
  std::exception_ptr first_err;

  std::uint64_t fp = 0;
  SpOp op = SpOp::kSpmv;        // carried into the hedged re-dispatch
  MatrixStats st;               // for the sibling's degraded path
  std::vector<Tensor> inputs;   // retained CNN inputs for the re-dispatch
  std::int64_t start_us = 0;
  std::int64_t abs_deadline_us = -1;
  int primary = 0;
  int sibling = 0;
};

ReplicaRouter::Metrics::Metrics()
    : prefix_(obs::next_prefix("router"))
          DNNSPMV_ROUTER_METRICS(DNNSPMV_OBS_REGISTER) {}

ReplicaRouter::ReplicaRouter(ModelRegistry& registry, RouterOptions opts)
    : registry_(registry),
      opts_(std::move(opts)),
      ring_(opts_.replicas),
      budget_us_(opts_.hedge_fixed_us > 0 ? opts_.hedge_fixed_us
                                          : kHedgeMinUs) {
  if (opts_.pin_workers)
    placement_ = affinity::plan_groups(affinity::detect_topology(),
                                       opts_.replicas);

  const auto n = static_cast<std::size_t>(opts_.replicas);
  services_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ServiceOptions so = opts_.service;
    so.cache_capacity =
        std::max<std::size_t>(64, opts_.service.cache_capacity / n);
    if (i < placement_.size()) so.pin_cpus = placement_[i].cpus;
    if (i < opts_.injectors.size() && opts_.injectors[i])
      so.injector = opts_.injectors[i];
    // Every replica subscribes to the shared registry: one publication
    // path, N independent inference lanes (each subscription adopts by
    // clone — see core/model_registry.hpp).
    services_.push_back(std::make_unique<SelectionService>(registry_, so));
  }
  metrics_.hedge_budget_us.set(
      static_cast<double>(budget_us_.load(std::memory_order_relaxed)));
  hedger_ = std::thread([this] { run_hedger(); });
}

ReplicaRouter::~ReplicaRouter() { shutdown(); }

void ReplicaRouter::shutdown() {
  if (stopped_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lk(hedge_mu_);
    hedge_stop_ = true;
  }
  hedge_cv_.notify_all();
  if (hedger_.joinable()) hedger_.join();
  // Replicas drain after the timer stops: in-flight requests resolve
  // through their callbacks, no new hedge can be issued for them.
  for (auto& svc : services_) svc->shutdown();
}

void ReplicaRouter::finalize_locked(HedgeState& s) {
  if (s.resolved || s.may_hedge || s.pending != 0 || !s.first_err) return;
  s.resolved = true;
  metrics_.errors.inc();
  s.result.set_exception(s.first_err);
}

void ReplicaRouter::complete(const std::shared_ptr<HedgeState>& s,
                             std::int32_t idx, AnswerSource src,
                             std::exception_ptr err, bool from_hedge) {
  std::int64_t wait_us = -1;
  {
    std::lock_guard<std::mutex> lk(s->mu);
    --s->pending;
    if (err) {
      // Held back: a sibling dispatch (or a hedge still to come) may yet
      // answer; the request fails only when nothing is left to try.
      if (!s->first_err) s->first_err = std::move(err);
      finalize_locked(*s);
      return;
    }
    if (s->resolved) return;  // the race's loser; first answer already out
    s->resolved = true;
    if (from_hedge) {
      metrics_.hedge_won.inc();
      // The sibling answered from its own cache: the key was warm on a
      // replica the ring no longer routes it to.
      if (src == AnswerSource::kCache) metrics_.misrouted.inc();
    }
    s->result.set_value(idx);
    if (src == AnswerSource::kCnn) wait_us = obs::now_us() - s->start_us;
  }
  if (wait_us >= 0) {
    // Only CNN-path waits feed the hedge budget: inline answers (cache,
    // degraded) resolve in microseconds and would drag the quantile to
    // the floor.
    metrics_.cnn_wait.observe(static_cast<double>(wait_us));
    if (waits_since_refresh_.fetch_add(1, std::memory_order_relaxed) + 1 >=
        32) {
      waits_since_refresh_.store(0, std::memory_order_relaxed);
      refresh_budget();
    }
  }
}

void ReplicaRouter::refresh_budget() {
  if (opts_.hedge_fixed_us > 0) return;
  const obs::Histogram::Snapshot snap = metrics_.cnn_wait.snapshot();
  if (snap.count == 0) return;
  const auto q = static_cast<std::int64_t>(snap.quantile(kHedgeQuantile));
  const std::int64_t b = std::clamp(q, kHedgeMinUs, kHedgeMaxUs);
  budget_us_.store(b, std::memory_order_relaxed);
  metrics_.hedge_budget_us.set(static_cast<double>(b));
}

void ReplicaRouter::fire_hedge(const std::shared_ptr<HedgeState>& s) {
  std::vector<Tensor> inputs;
  std::optional<std::chrono::microseconds> dl;
  {
    std::lock_guard<std::mutex> lk(s->mu);
    s->may_hedge = false;
    if (s->resolved) return;
    if (s->abs_deadline_us >= 0) {
      const std::int64_t rem = s->abs_deadline_us - obs::now_us();
      if (rem <= 0) {
        // Too late to hedge; if the primary already failed, resolve now.
        finalize_locked(*s);
        return;
      }
      dl = std::chrono::microseconds(rem);
    }
    inputs = std::move(s->inputs);
    ++s->pending;
  }
  metrics_.hedges.inc();
  Request hedge;
  hedge.op = s->op;
  hedge.stats = s->st;
  hedge.fingerprint = s->fp;
  hedge.inputs = std::move(inputs);
  hedge.deadline = dl;
  hedge.done = [this, s](std::int32_t idx, AnswerSource src,
                         std::exception_ptr err) {
    complete(s, idx, src, std::move(err), /*from_hedge=*/true);
  };
  services_[static_cast<std::size_t>(s->sibling)]->submit(std::move(hedge));
}

void ReplicaRouter::run_hedger() {
  std::unique_lock<std::mutex> lk(hedge_mu_);
  while (!hedge_stop_) {
    if (hedge_queue_.empty()) {
      hedge_cv_.wait(lk);
      continue;
    }
    const auto it = hedge_queue_.begin();
    const std::int64_t now = obs::now_us();
    if (now < it->first) {
      hedge_cv_.wait_for(lk, std::chrono::microseconds(it->first - now));
      continue;
    }
    const std::shared_ptr<HedgeState> s = it->second;
    hedge_queue_.erase(it);
    lk.unlock();
    fire_hedge(s);
    lk.lock();
  }
  // Shutdown: no hedge will fire for what remains. States whose every
  // dispatch already failed must resolve now (nobody else will).
  for (auto& [fire_at, s] : hedge_queue_) {
    std::lock_guard<std::mutex> slk(s->mu);
    s->may_hedge = false;
    finalize_locked(*s);
  }
  hedge_queue_.clear();
}

std::future<std::int32_t> ReplicaRouter::submit(
    const Csr& a, SpOp op,
    std::optional<std::chrono::microseconds> deadline) {
  if (stopped_.load(std::memory_order_acquire)) return shutdown_future();
  metrics_.requests.inc();

  MatrixStats st;
  std::uint64_t fp = 0;
  {
    obs::Span span("router.fingerprint");
    st = compute_stats(a);
    fp = structural_fingerprint(st);
  }

  auto s = std::make_shared<HedgeState>();
  s->fp = fp;
  s->op = op;
  s->st = st;
  s->start_us = obs::now_us();
  s->primary = ring_.primary(fp);
  s->sibling = ring_.sibling(fp);
  if (deadline) s->abs_deadline_us = s->start_us + deadline->count();
  const bool hedgeable = opts_.hedge && ring_.replicas() > 1;
  std::future<std::int32_t> fut = s->result.get_future();
  {
    std::lock_guard<std::mutex> lk(s->mu);
    s->pending = 1;
    s->may_hedge = hedgeable;
  }

  Request primary;
  primary.matrix = &a;
  primary.op = op;
  primary.stats = st;
  primary.fingerprint = fp;
  primary.deadline = deadline;
  primary.done = [this, s](std::int32_t idx, AnswerSource src,
                           std::exception_ptr err) {
    complete(s, idx, src, std::move(err), /*from_hedge=*/false);
  };
  primary.retain_inputs = hedgeable ? &s->inputs : nullptr;
  services_[static_cast<std::size_t>(s->primary)]->submit(std::move(primary));

  if (hedgeable) {
    bool track = false;
    {
      std::lock_guard<std::mutex> lk(s->mu);
      // Only requests that actually reached the primary's queue are worth
      // hedging: inline answers (hit/degraded) are already resolved, and
      // an inline rejection left nothing to wait for.
      if (!s->resolved && !s->inputs.empty()) {
        track = true;
      } else {
        s->may_hedge = false;
        finalize_locked(*s);
      }
    }
    if (track) {
      const std::int64_t fire_at =
          obs::now_us() + budget_us_.load(std::memory_order_relaxed);
      bool registered = false;
      {
        std::lock_guard<std::mutex> lk(hedge_mu_);
        if (!hedge_stop_) {
          hedge_queue_.emplace(fire_at, s);
          registered = true;
        }
      }
      if (registered) {
        hedge_cv_.notify_one();
      } else {
        std::lock_guard<std::mutex> lk(s->mu);
        s->may_hedge = false;
        finalize_locked(*s);
      }
    }
  }
  return fut;
}

std::int32_t ReplicaRouter::predict_index(
    const Csr& a, SpOp op, std::optional<std::chrono::microseconds> deadline) {
  obs::Span span("router.predict");
  Timer timer;
  std::future<std::int32_t> fut = submit(a, op, deadline);
  const std::int32_t idx = fut.get();
  metrics_.latency.observe_seconds(timer.seconds());
  return idx;
}

Format ReplicaRouter::predict(
    const Csr& a, SpOp op, std::optional<std::chrono::microseconds> deadline) {
  return candidates()[static_cast<std::size_t>(
      predict_index(a, op, deadline))];
}

RouterStats ReplicaRouter::Metrics::read() const {
  RouterStats stats;
  DNNSPMV_ROUTER_METRICS(DNNSPMV_OBS_READ)
  return stats;
}

RouterStats ReplicaRouter::snapshot() const {
  RouterStats stats = metrics_.read();
  stats.replica.reserve(services_.size());
  for (const auto& svc : services_) stats.replica.push_back(svc->snapshot());
  return stats;
}

}  // namespace dnnspmv
