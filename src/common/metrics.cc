#include "common/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "common/logging.h"

namespace ksp {

namespace metrics_internal {

size_t ThisThreadShard() {
  static std::atomic<size_t> next_shard{0};
  thread_local const size_t shard =
      next_shard.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return shard;
}

void AtomicAddDouble(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

namespace {

/// Shortest round-trippable representation; integers print without a
/// trailing ".0" so golden exports stay readable.
std::string FormatDouble(double value) {
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  if (std::isnan(value)) return "NaN";
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(value));
    return buf;
  }
  char buf[64];
  for (int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::stod(buf) == value) break;
  }
  return buf;
}

/// JSON has no Inf; quantiles over an empty histogram export as 0.
std::string FormatJsonDouble(double value) {
  if (std::isinf(value) || std::isnan(value)) return "0";
  return FormatDouble(value);
}

void AppendJsonKey(std::string* out, const std::string& name) {
  // Metric names are code-owned [a-zA-Z0-9_:] identifiers; no escaping.
  out->push_back('"');
  out->append(name);
  out->append("\": ");
}

}  // namespace
}  // namespace metrics_internal

using metrics_internal::FormatDouble;
using metrics_internal::FormatJsonDouble;

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based, rounded up).
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count))));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const uint64_t next = cumulative + counts[i];
    if (rank <= next && counts[i] > 0) {
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      if (i >= bounds.size()) return lower;  // +inf bucket: lower bound.
      const double upper = bounds[i];
      // Linear interpolation of the rank inside the bucket.
      const double fraction = (static_cast<double>(rank) -
                               static_cast<double>(cumulative)) /
                              static_cast<double>(counts[i]);
      return lower + (upper - lower) * fraction;
    }
    cumulative = next;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)) {
  KSP_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()) &&
            std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                bounds_.end())
      << "histogram bounds must be strictly ascending";
  const size_t num_buckets = bounds_.size() + 1;
  for (Shard& shard : shards_) {
    shard.counts =
        std::make_unique<std::atomic<uint64_t>[]>(num_buckets);
    for (size_t i = 0; i < num_buckets; ++i) {
      shard.counts[i].store(0, std::memory_order_relaxed);
    }
  }
}

void Histogram::Observe(double value) {
  // lower_bound keeps Prometheus le-semantics: a value equal to a bucket
  // bound belongs to that bucket (le is ≤, not <).
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  Shard& shard = shards_[metrics_internal::ThisThreadShard()];
  shard.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  metrics_internal::AtomicAddDouble(&shard.sum, value);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.bounds = bounds_;
  snapshot.counts.assign(bounds_.size() + 1, 0);
  for (const Shard& shard : shards_) {
    for (size_t i = 0; i < snapshot.counts.size(); ++i) {
      snapshot.counts[i] +=
          shard.counts[i].load(std::memory_order_relaxed);
    }
    snapshot.sum += shard.sum.load(std::memory_order_relaxed);
  }
  for (uint64_t c : snapshot.counts) snapshot.count += c;
  return snapshot;
}

std::vector<double> Histogram::DefaultLatencyBucketsMs() {
  return {0.05, 0.1,  0.25, 0.5,  1.0,    2.5,    5.0,
          10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
          2500.0, 5000.0, 10000.0, 30000.0, 120000.0};
}

std::vector<double> Histogram::DefaultLatencyBucketsUs() {
  return {1.0,    2.5,    5.0,    10.0,    25.0,    50.0,    100.0,
          250.0,  500.0,  1000.0, 2500.0,  5000.0,  10000.0, 25000.0,
          50000.0, 100000.0, 1000000.0, 10000000.0};
}

std::string MetricsSnapshot::ToPrometheusText() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + FormatDouble(value) + "\n";
  }
  for (const auto& [name, histogram] : histograms) {
    out += "# TYPE " + name + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < histogram.counts.size(); ++i) {
      cumulative += histogram.counts[i];
      const std::string le = i < histogram.bounds.size()
                                 ? FormatDouble(histogram.bounds[i])
                                 : "+Inf";
      out += name + "_bucket{le=\"" + le + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += name + "_sum " + FormatDouble(histogram.sum) + "\n";
    out += name + "_count " + std::to_string(histogram.count) + "\n";
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  using metrics_internal::AppendJsonKey;
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonKey(&out, name);
    out += std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonKey(&out, name);
    out += FormatJsonDouble(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonKey(&out, name);
    out += "{\"count\": " + std::to_string(histogram.count);
    out += ", \"sum\": " + FormatJsonDouble(histogram.sum);
    out += ", \"p50\": " + FormatJsonDouble(histogram.p50());
    out += ", \"p95\": " + FormatJsonDouble(histogram.p95());
    out += ", \"p99\": " + FormatJsonDouble(histogram.p99());
    out += ", \"buckets\": [";
    for (size_t i = 0; i < histogram.counts.size(); ++i) {
      if (i > 0) out += ", ";
      const std::string le = i < histogram.bounds.size()
                                 ? FormatJsonDouble(histogram.bounds[i])
                                 : "\"+Inf\"";
      out += "{\"le\": " + le +
             ", \"count\": " + std::to_string(histogram.counts[i]) + "}";
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  KSP_CHECK(gauges_.find(name) == gauges_.end() &&
            histograms_.find(name) == histograms_.end())
      << "metric '" << name << "' already registered with another kind";
  auto [it, inserted] = counters_.try_emplace(name);
  if (inserted) it->second = std::make_unique<Counter>();
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  KSP_CHECK(counters_.find(name) == counters_.end() &&
            histograms_.find(name) == histograms_.end())
      << "metric '" << name << "' already registered with another kind";
  auto [it, inserted] = gauges_.try_emplace(name);
  if (inserted) it->second = std::make_unique<Gauge>();
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  return GetHistogram(name, Histogram::DefaultLatencyBucketsMs());
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  KSP_CHECK(counters_.find(name) == counters_.end() &&
            gauges_.find(name) == gauges_.end())
      << "metric '" << name << "' already registered with another kind";
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::make_unique<Histogram>(std::move(bounds)))
             .first;
  } else {
    KSP_CHECK(it->second->bounds() == bounds)
        << "histogram '" << name << "' re-registered with other bounds";
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms[name] = histogram->Snapshot();
  }
  return snapshot;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace ksp
