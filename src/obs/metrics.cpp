#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace dnnspmv::obs {

void Gauge::add(double d) {
  double cur = v_.load(std::memory_order_relaxed);
  while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

void Gauge::update_max(double v) {
  double cur = v_.load(std::memory_order_relaxed);
  while (cur < v &&
         !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

double Histogram::Snapshot::quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t total = 0;
  for (std::uint64_t c : buckets) total += c;
  if (total == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    seen += buckets[static_cast<std::size_t>(i)];
    if (seen >= rank) return bucket_upper(i);
  }
  return bucket_upper(kHistogramBuckets - 1);
}

void Histogram::observe(double v) {
  v = std::max(v, 0.0);
  const auto ticks = static_cast<std::uint64_t>(v);
  const int idx =
      ticks == 0
          ? 0
          : std::min(kHistogramBuckets - 1,
                     static_cast<int>(std::bit_width(ticks)) - 1);
  buckets_[static_cast<std::size_t>(idx)].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  for (int i = 0; i < kHistogramBuckets; ++i)
    s.buckets[static_cast<std::size_t>(i)] =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry reg;
  return reg;
}

namespace {

// Creating an instrument under a name already registered as another kind
// is a wiring bug; fail loudly rather than silently splitting the metric.
template <typename Map, typename... Others>
void check_name_free(std::string_view name, const char* kind,
                     const Others&... others) {
  const bool clash = (... || (others.find(name) != others.end()));
  if (clash)
    throw std::logic_error("obs: metric '" + std::string(name) +
                           "' already registered as a different kind than " +
                           kind);
  (void)sizeof(Map);
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    check_name_free<decltype(counters_)>(name, "counter", gauges_,
                                         histograms_);
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    check_name_free<decltype(gauges_)>(name, "gauge", counters_, histograms_);
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    check_name_free<decltype(histograms_)>(name, "histogram", counters_,
                                           gauges_);
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

std::uint64_t MetricsSnapshot::counter_or(const std::string& name,
                                          std::uint64_t fallback) const {
  const auto it = counters.find(name);
  return it == counters.end() ? fallback : it->second;
}

double MetricsSnapshot::gauge_or(const std::string& name,
                                 double fallback) const {
  const auto it = gauges.find(name);
  return it == gauges.end() ? fallback : it->second;
}

Histogram::Snapshot MetricsSnapshot::histogram_or(
    const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? Histogram::Snapshot{} : it->second;
}

MetricsSnapshot MetricsRegistry::snapshot(std::string_view prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot s;
  for (const auto& [name, c] : counters_)
    if (name.compare(0, prefix.size(), prefix) == 0)
      s.counters.emplace(name, c->value());
  for (const auto& [name, g] : gauges_)
    if (name.compare(0, prefix.size(), prefix) == 0)
      s.gauges.emplace(name, g->value());
  for (const auto& [name, h] : histograms_)
    if (name.compare(0, prefix.size(), prefix) == 0)
      s.histograms.emplace(name, h->snapshot());
  return s;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::string next_prefix(std::string_view kind) {
  static std::mutex mu;
  static std::map<std::string, int, std::less<>> next;
  std::lock_guard<std::mutex> lock(mu);
  auto it = next.find(kind);
  if (it == next.end()) it = next.emplace(std::string(kind), 0).first;
  return std::string(kind) + std::to_string(it->second++) + ".";
}

}  // namespace dnnspmv::obs
