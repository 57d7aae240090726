#include "core/feedback.hpp"

#include <algorithm>
#include <utility>

namespace dnnspmv {
namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FeedbackCollector::FeedbackCollector(FeedbackOptions opts)
    : opts_(opts),
      capacity_(round_up_pow2(std::max<std::size_t>(opts.capacity, 2))),
      mask_(capacity_ - 1),
      cells_(new Cell[capacity_]),
      prefix_(obs::next_prefix("feedback")),
      offered_(obs::MetricsRegistry::global().counter(prefix_ +
                                                      "feedback_offered")),
      sampled_(obs::MetricsRegistry::global().counter(prefix_ +
                                                      "feedback_sampled")),
      published_(obs::MetricsRegistry::global().counter(prefix_ +
                                                        "feedback_published")),
      dropped_(obs::MetricsRegistry::global().counter(prefix_ +
                                                      "feedback_dropped")),
      depth_(obs::MetricsRegistry::global().gauge(prefix_ + "feedback_depth")) {
  if (opts_.sample_every <= 0) opts_.sample_every = 1;
  for (std::size_t i = 0; i < capacity_; ++i)
    cells_[i].seq.store(i, std::memory_order_relaxed);
}

bool FeedbackCollector::offer() {
  offered_.inc();
  const std::uint64_t n = offers_.fetch_add(1, std::memory_order_relaxed);
  const bool take = n % static_cast<std::uint64_t>(opts_.sample_every) == 0;
  if (take) sampled_.inc();
  return take;
}

bool FeedbackCollector::publish(FeedbackSample&& sample) {
  std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = cells_[pos & mask_];
    const std::size_t seq = cell.seq.load(std::memory_order_acquire);
    const auto diff = static_cast<std::ptrdiff_t>(seq) -
                      static_cast<std::ptrdiff_t>(pos);
    if (diff == 0) {
      // Slot free at this cursor: claim it, write, then flip seq to make
      // the value visible to the consumer.
      if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                             std::memory_order_relaxed)) {
        cell.value = std::move(sample);
        cell.seq.store(pos + 1, std::memory_order_release);
        published_.inc();
        depth_.set(static_cast<double>(approx_depth()));
        return true;
      }
      // CAS lost: `pos` was reloaded; retry on the new cursor.
    } else if (diff < 0) {
      // A full lap behind the dequeue cursor: ring is full. Drop, don't
      // block — the hot path never waits on the trainer.
      dropped_.inc();
      return false;
    } else {
      pos = enqueue_pos_.load(std::memory_order_relaxed);
    }
  }
}

std::size_t FeedbackCollector::drain(std::vector<FeedbackSample>& out,
                                     std::size_t max) {
  std::size_t drained = 0;
  while (drained < max) {
    const std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    const std::size_t seq = cell.seq.load(std::memory_order_acquire);
    const auto diff = static_cast<std::ptrdiff_t>(seq) -
                      static_cast<std::ptrdiff_t>(pos + 1);
    if (diff != 0) break;  // next slot not published yet — stream is dry
    out.push_back(std::move(cell.value));
    cell.value = FeedbackSample{};  // release tensor buffers eagerly
    // Mark the slot free for the producer a lap from now.
    cell.seq.store(pos + capacity_, std::memory_order_release);
    dequeue_pos_.store(pos + 1, std::memory_order_relaxed);
    ++drained;
  }
  if (drained > 0) depth_.set(static_cast<double>(approx_depth()));
  return drained;
}

std::size_t FeedbackCollector::approx_depth() const {
  const std::size_t e = enqueue_pos_.load(std::memory_order_relaxed);
  const std::size_t d = dequeue_pos_.load(std::memory_order_relaxed);
  return e >= d ? e - d : 0;
}

}  // namespace dnnspmv
