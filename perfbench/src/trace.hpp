// The benchmark's own spans: recorded around its calls into each layer,
// kept in memory per thread, and written as one chrome trace at the end.
// Each span carries the id of the request or job it belongs to and is
// named after the per-layer metric it feeds, so the per-layer medians are
// computed from exactly the spans in the file.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct SpanEvent {
  const char* name;  // a string literal (the metric name)
  std::int64_t id;   // request or job id
  Clock::time_point start, end;
};

/// One thread's span buffer. Not thread-safe: one per recording thread.
/// Past `capacity` events further spans are dropped and counted.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) : capacity_(capacity) {
    events_.reserve(capacity);
  }
  void add(const char* name, std::int64_t id, Clock::time_point start,
           Clock::time_point end) {
    if (events_.size() < capacity_)
      events_.push_back({name, id, start, end});
    else
      ++dropped_;
  }
  const std::vector<SpanEvent>& events() const { return events_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::size_t capacity_;
  std::vector<SpanEvent> events_;
  std::uint64_t dropped_ = 0;
};

/// Owns every thread's log. Logs are created before the threads start and
/// read after they are joined, so no locking is needed.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity_per_thread = 1 << 19)
      : capacity_(capacity_per_thread), origin_(Clock::now()) {}

  /// A fresh log for one recording thread (`label` names its trace row).
  SpanLog& new_log(const std::string& label);

  /// Durations (µs) of every recorded span named `name`, all threads.
  std::vector<double> durations_us(const std::string& name) const;
  std::uint64_t dropped() const;

  /// Writes the chrome://tracing "Trace Event Format" file.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::size_t capacity_;
  Clock::time_point origin_;
  std::vector<std::string> labels_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

}  // namespace perfbench
