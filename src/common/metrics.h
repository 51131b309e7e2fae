#ifndef KSP_COMMON_METRICS_H_
#define KSP_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ksp {

/// Number of cache-line-padded shards per metric. Writers pick a shard by
/// a per-thread index (round-robin assigned on first use), so concurrent
/// increments from up to kMetricShards threads never contend on one cache
/// line; readers sum all shards on scrape.
inline constexpr size_t kMetricShards = 16;

namespace metrics_internal {
/// Stable per-thread shard index in [0, kMetricShards).
size_t ThisThreadShard();

/// Relaxed atomic double addition via CAS (atomic<double>::fetch_add is
/// not universally available).
void AtomicAddDouble(std::atomic<double>* target, double delta);
}  // namespace metrics_internal

/// Monotonically increasing counter. Increment() is lock-free and
/// write-contention-free across threads (thread-local shards); Value()
/// merges the shards and may miss increments that race with the scrape —
/// it is a snapshot, not a barrier.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t delta = 1) {
    shards_[metrics_internal::ThisThreadShard()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Shard& shard : shards_) {
      sum += shard.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  Shard shards_[kMetricShards];
};

/// Last-write-wins instantaneous value (e.g. pool size, queue depth).
/// Set/Add/Value are lock-free; Add uses a CAS loop.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    metrics_internal::AtomicAddDouble(&value_, delta);
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Merged, immutable view of a histogram: per-bucket counts against fixed
/// upper bounds (an implicit +inf bucket is always last), plus the total
/// count and value sum. Quantiles interpolate linearly inside the bucket
/// that crosses the requested rank.
struct HistogramSnapshot {
  /// Finite bucket upper bounds, ascending. counts.size() == bounds.size()
  /// + 1; the final count is the +inf overflow bucket.
  std::vector<double> bounds;
  std::vector<uint64_t> counts;
  uint64_t count = 0;
  double sum = 0.0;

  double Quantile(double q) const;
  double p50() const { return Quantile(0.50); }
  double p95() const { return Quantile(0.95); }
  double p99() const { return Quantile(0.99); }
};

/// Fixed-bucket histogram. Observe() is lock-free (thread-local shards);
/// Snapshot() merges the shards. Bucket bounds are fixed at construction.
class Histogram {
 public:
  /// `bounds` are the finite bucket upper bounds, strictly ascending; an
  /// overflow (+inf) bucket is appended implicitly.
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double value);
  HistogramSnapshot Snapshot() const;

  const std::vector<double>& bounds() const { return bounds_; }

  /// Default latency buckets in milliseconds: 50 µs to 2 min,
  /// roughly 1-2.5-5 per decade.
  static std::vector<double> DefaultLatencyBucketsMs();
  /// Default latency buckets in microseconds: 1 µs to 10 s.
  static std::vector<double> DefaultLatencyBucketsUs();

 private:
  struct alignas(64) Shard {
    /// counts[bucket]; sized bounds_.size() + 1 (overflow last).
    std::unique_ptr<std::atomic<uint64_t>[]> counts;
    std::atomic<double> sum{0.0};
  };

  std::vector<double> bounds_;
  Shard shards_[kMetricShards];
};

/// Order-deterministic view of a whole registry for export. Maps are
/// keyed by metric name, so export order never depends on registration
/// order.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Prometheus text exposition format (# TYPE comments, _bucket/_sum/
  /// _count expansion for histograms), sorted by metric name.
  std::string ToPrometheusText() const;

  /// JSON object {"counters": {...}, "gauges": {...}, "histograms":
  /// {name: {"buckets": [{"le": ..., "count": ...}], "count", "sum",
  /// "p50", "p95", "p99"}}}, sorted by metric name.
  std::string ToJson() const;
};

/// Process- or component-scoped collection of named metrics. Registration
/// (Get*) takes a mutex and returns a stable pointer — callers on hot
/// paths register once and cache the handle; increments/observations on
/// the returned objects are lock-free. Re-registering a name returns the
/// existing metric (histogram bounds must then match the first
/// registration).
///
/// A metric name may hold only one kind; Get* with a mismatched kind
/// crashes (names are a static, code-owned namespace — see DESIGN.md §7).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// Default bounds: DefaultLatencyBucketsMs().
  Histogram* GetHistogram(const std::string& name);
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds);

  /// Merged point-in-time view of every registered metric.
  MetricsSnapshot Snapshot() const;

  /// The process-wide registry (e.g. for servers exposing /metrics).
  /// Library code takes an explicit registry instead of assuming it.
  static MetricsRegistry& Global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace ksp

#endif  // KSP_COMMON_METRICS_H_
