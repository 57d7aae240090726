#include "serve/metrics.hpp"

namespace dnnspmv {
namespace {

std::string next_service_prefix() {
  static std::atomic<int> instance{0};
  return "serve" + std::to_string(instance.fetch_add(1)) + ".";
}

}  // namespace

ServiceMetrics::ServiceMetrics(obs::MetricsRegistry* reg)
    : reg_(reg ? reg : &obs::MetricsRegistry::global()),
      prefix_(next_service_prefix()),
      requests_(reg_->counter(prefix_ + "requests")),
      cache_hits_(reg_->counter(prefix_ + "cache_hits")),
      cache_misses_(reg_->counter(prefix_ + "cache_misses")),
      rejected_(reg_->counter(prefix_ + "rejected")),
      deadline_expired_(reg_->counter(prefix_ + "deadline_expired")),
      shed_(reg_->counter(prefix_ + "shed")),
      degraded_(reg_->counter(prefix_ + "degraded")),
      retries_(reg_->counter(prefix_ + "retries")),
      fp_reused_(reg_->counter(prefix_ + "fp_reused")),
      spmv_requests_(reg_->counter(prefix_ + "spmv_requests")),
      spmm_requests_(reg_->counter(prefix_ + "spmm_requests")),
      batches_(reg_->counter(prefix_ + "batches")),
      batched_samples_(reg_->counter(prefix_ + "batched_samples")),
      swap_total_(reg_->counter(prefix_ + "swap_total")),
      model_version_(reg_->gauge(prefix_ + "model_version")),
      max_batch_(reg_->gauge(prefix_ + "max_batch")),
      cache_entries_(reg_->gauge(prefix_ + "cache_entries")),
      queue_depth_(reg_->gauge(prefix_ + "queue_depth")),
      latency_(reg_->histogram(prefix_ + "latency_us")),
      queue_wait_(reg_->histogram(prefix_ + "queue_wait_us")),
      batch_size_(reg_->histogram(prefix_ + "batch_size")),
      rep_build_(reg_->histogram(prefix_ + "rep_build_us")) {}

void ServiceMetrics::record_batch(std::size_t batch_size) {
  batches_.inc();
  batched_samples_.inc(batch_size);
  max_batch_.update_max(static_cast<double>(batch_size));
  batch_size_.observe(static_cast<double>(batch_size));
}

ServiceStats ServiceMetrics::snapshot(std::uint64_t cache_entries) const {
  cache_entries_.set(static_cast<double>(cache_entries));
  ServiceStats s;
  s.requests = requests_.value();
  s.cache_hits = cache_hits_.value();
  s.cache_misses = cache_misses_.value();
  s.rejected = rejected_.value();
  s.deadline_expired = deadline_expired_.value();
  s.shed = shed_.value();
  s.degraded = degraded_.value();
  s.retries = retries_.value();
  s.fp_reused = fp_reused_.value();
  s.spmv_requests = spmv_requests_.value();
  s.spmm_requests = spmm_requests_.value();
  s.batches = batches_.value();
  s.batched_samples = batched_samples_.value();
  s.max_batch = static_cast<std::uint64_t>(max_batch_.value());
  s.cache_entries = cache_entries;
  s.model_version = static_cast<std::uint64_t>(model_version_.value());
  s.model_swaps = swap_total_.value();
  s.latency = latency_.snapshot();
  s.rep_build = rep_build_.snapshot();
  return s;
}

}  // namespace dnnspmv
