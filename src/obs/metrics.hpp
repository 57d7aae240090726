// Process-wide metrics: named atomic counters, gauges, and fixed-bucket
// histograms behind a registry.
//
// Instruments are registered once by name and returned by reference; the
// references are stable for the registry's lifetime, so instrumentation
// sites resolve their handles once (at construction, or via a local
// static) and then update through plain relaxed atomics — the hot path
// never takes the registry lock and never hashes a name.
//
// Histogram buckets are powers of two of the observed value: bucket i
// counts observations in [2^i, 2^(i+1)), bucket 0 additionally takes
// values < 1 and the last bucket takes everything larger. Latency
// histograms record microseconds (observe_seconds converts), so the
// buckets span 1 µs … ~2 s — the same shape the serve layer has used
// since PR 1.
//
// A process-global registry (MetricsRegistry::global()) is what the
// library's built-in instrumentation reports through; independent
// instances can be created for isolation (tests do).
//
// Metrics tables. The instruments a component owns (a service's, a
// router's) are declared once, as an X-macro table with one row per
// instrument:
//
//   X(kind, field, "registry_name", "one-line doc")
//
// `kind` is Counter, Gauge or Histogram; `field` names both the block's
// handle and the member of its plain-value stats struct; the instrument
// lives in the global registry as <prefix><registry_name>. The
// DNNSPMV_OBS_* macros at the end of this header expand a table into the
// stats members, the handles, their registration and the snapshot copy,
// so a new instrument is one row plus the line that updates it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace dnnspmv::obs {

inline constexpr int kHistogramBuckets = 22;

/// Monotonic event count. All updates are relaxed atomics.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written value (plus a CAS-max update for high-water marks).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d);
  /// Raises the gauge to `v` if larger (monotonic high-water mark).
  void update_max(double v);
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed power-of-two-bucket histogram with count and sum.
class Histogram {
 public:
  struct Snapshot {
    std::array<std::uint64_t, kHistogramBuckets> buckets{};
    std::uint64_t count = 0;
    double sum = 0.0;  // in observed-value units

    /// Upper edge of bucket `i`, in observed-value units.
    static double bucket_upper(int i) {
      return static_cast<double>(1ULL << (i + 1));
    }
    /// Upper edge of the bucket containing the q-th observation.
    double quantile(double q) const;
    double mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
  };

  void observe(double v);
  /// Seconds → microseconds, so latency buckets span 1 µs … ~2 s.
  void observe_seconds(double s) { observe(s * 1e6); }

  Snapshot snapshot() const;
  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Point-in-time copy of every instrument in a registry.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram::Snapshot> histograms;

  /// Lenient accessors: a name that was never registered (e.g. a counter
  /// no request path has touched yet) reads as zero/empty instead of the
  /// std::out_of_range that map::at would throw. Exports and assertions
  /// over optional instruments stay one-liners.
  std::uint64_t counter_or(const std::string& name,
                           std::uint64_t fallback = 0) const;
  double gauge_or(const std::string& name, double fallback = 0.0) const;
  Histogram::Snapshot histogram_or(const std::string& name) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The registry the library's built-in instrumentation reports through.
  static MetricsRegistry& global();

  /// Returns the instrument registered under `name`, creating it on first
  /// use. References stay valid for the registry's lifetime. Asking for an
  /// existing name with a different instrument kind throws.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Copies every instrument whose name starts with `prefix` (all of them
  /// for the default empty prefix). Names are kept un-stripped so exports
  /// from the global registry stay unambiguous.
  MetricsSnapshot snapshot(std::string_view prefix = {}) const;

  /// Zeroes every instrument (benches reset between configurations).
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// A fresh "<kind><N>." name prefix for one instance of a metrics block:
/// N counts from 0 per kind ("serve0.", "serve1.", "router0.", …), so
/// instances alive at the same time never share an instrument.
std::string next_prefix(std::string_view kind);

/// How a table row of instrument type I registers (in the global registry)
/// and what its stats member holds. Table gauges carry whole numbers:
/// sizes, depths, versions, budgets.
template <class I>
struct Row;

template <>
struct Row<Counter> {
  using Value = std::uint64_t;
  static Counter& make(std::string_view name) {
    return MetricsRegistry::global().counter(name);
  }
  static Value read(const Counter& c) { return c.value(); }
};

template <>
struct Row<Gauge> {
  using Value = std::uint64_t;
  static Gauge& make(std::string_view name) {
    return MetricsRegistry::global().gauge(name);
  }
  static Value read(const Gauge& g) { return static_cast<Value>(g.value()); }
};

template <>
struct Row<Histogram> {
  using Value = Histogram::Snapshot;
  static Histogram& make(std::string_view name) {
    return MetricsRegistry::global().histogram(name);
  }
  static Value read(const Histogram& h) { return h.snapshot(); }
};

}  // namespace dnnspmv::obs

/// Table row → stats member: `Value field{};`.
#define DNNSPMV_OBS_FIELD(kind, field, name, doc) \
  ::dnnspmv::obs::Row<::dnnspmv::obs::kind>::Value field{};
/// Table row → block handle: `kind& field;`.
#define DNNSPMV_OBS_HANDLE(kind, field, name, doc) ::dnnspmv::obs::kind& field;
/// Table row → registration, in the block constructor's initializer list
/// after the block's `prefix_` member: `, field(<prefix_ + name>)`.
#define DNNSPMV_OBS_REGISTER(kind, field, name, doc) \
  , field(::dnnspmv::obs::Row<::dnnspmv::obs::kind>::make(prefix_ + name))
/// Table row → snapshot copy, in a block member filling a local `stats`.
#define DNNSPMV_OBS_READ(kind, field, name, doc) \
  stats.field = ::dnnspmv::obs::Row<::dnnspmv::obs::kind>::read(field);
