#include "serve/request_queue.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dnnspmv {

RequestQueue::RequestQueue(std::size_t capacity) : capacity_(capacity) {
  DNNSPMV_CHECK_MSG(capacity > 0, "request queue capacity must be positive");
}

PushResult RequestQueue::try_push(PredictRequest&& r) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return PushResult::kClosed;
    if (q_.size() >= capacity_) return PushResult::kFull;
    q_.push_back(std::move(r));
    approx_size_.store(q_.size(), std::memory_order_relaxed);
    // Notify (a futex syscall) only when a worker is parked. Reading the
    // count under the lock is race-free: a worker only starts waiting while
    // holding mu_, and one that locks after us sees the non-empty queue.
    wake = empty_waiters_ > 0;
  }
  if (wake) not_empty_.notify_one();
  return PushResult::kOk;
}

std::size_t RequestQueue::pop_batch(std::vector<PredictRequest>& out,
                                    std::size_t max_batch) {
  DNNSPMV_CHECK(max_batch > 0);
  std::unique_lock<std::mutex> lock(mu_);
  ++empty_waiters_;
  not_empty_.wait(lock, [this] { return closed_ || !q_.empty(); });
  --empty_waiters_;
  const std::size_t n = std::min(max_batch, q_.size());
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::move(q_.front()));
    q_.pop_front();
  }
  approx_size_.store(q_.size(), std::memory_order_relaxed);
  return n;
}

void RequestQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

std::size_t RequestQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return q_.size();
}

}  // namespace dnnspmv
