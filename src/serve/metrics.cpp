#include "serve/metrics.hpp"

namespace dnnspmv {

ServiceMetrics::ServiceMetrics()
    : prefix_(obs::next_prefix("serve"))
          DNNSPMV_SERVICE_METRICS(DNNSPMV_OBS_REGISTER) {}

void ServiceMetrics::record_batch(std::size_t size) {
  batches.inc();
  batched_samples.inc(size);
  max_batch.update_max(static_cast<double>(size));
  batch_size.observe(static_cast<double>(size));
}

ServiceStats ServiceMetrics::snapshot(std::uint64_t entries) const {
  cache_entries.set(static_cast<double>(entries));
  ServiceStats stats;
  DNNSPMV_SERVICE_METRICS(DNNSPMV_OBS_READ)
  return stats;
}

}  // namespace dnnspmv
