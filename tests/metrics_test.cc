// MetricsRegistry semantics: counter/gauge/histogram behaviour, shard
// merging under concurrency (run under TSan in CI — see sanitize.yml),
// and the Prometheus/JSON export golden strings DESIGN.md §7 declares
// stable.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "core/database.h"
#include "core/executor.h"
#include "datagen/fixtures.h"

namespace ksp {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.Value(), 42u);
}

TEST(CounterTest, EightThreadsNeverLoseIncrements) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
  gauge.Set(3.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 3.5);
  gauge.Add(-1.25);
  EXPECT_DOUBLE_EQ(gauge.Value(), 2.25);
  gauge.Set(7.0);  // Last write wins over accumulated state.
  EXPECT_DOUBLE_EQ(gauge.Value(), 7.0);
}

TEST(GaugeTest, ConcurrentAddIsExact) {
  // Add uses a CAS loop, so concurrent deltas must all land.
  Gauge gauge;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kPerThread; ++i) gauge.Add(1.0);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_DOUBLE_EQ(gauge.Value(), kThreads * kPerThread);
}

TEST(HistogramTest, BucketAssignmentUsesLeSemantics) {
  Histogram histogram({1.0, 2.5, 10.0});
  histogram.Observe(0.5);   // le=1
  histogram.Observe(1.0);   // le=1: equal to the bound stays in it.
  histogram.Observe(2.0);   // le=2.5
  histogram.Observe(10.5);  // +Inf overflow
  HistogramSnapshot snapshot = histogram.Snapshot();
  ASSERT_EQ(snapshot.counts.size(), 4u);
  EXPECT_EQ(snapshot.counts[0], 2u);
  EXPECT_EQ(snapshot.counts[1], 1u);
  EXPECT_EQ(snapshot.counts[2], 0u);
  EXPECT_EQ(snapshot.counts[3], 1u);
  EXPECT_EQ(snapshot.count, 4u);
  EXPECT_DOUBLE_EQ(snapshot.sum, 14.0);
}

TEST(HistogramTest, QuantilesInterpolateInsideTheCrossingBucket) {
  Histogram histogram({10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  for (int v = 1; v <= 100; ++v) histogram.Observe(v);
  HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 100u);
  EXPECT_NEAR(snapshot.p50(), 50.0, 1.0);
  EXPECT_NEAR(snapshot.p95(), 95.0, 1.0);
  EXPECT_NEAR(snapshot.p99(), 99.0, 1.0);
  EXPECT_NEAR(snapshot.Quantile(0.0), 1.0, 1.0);
  EXPECT_NEAR(snapshot.Quantile(1.0), 100.0, 1.0);
}

TEST(HistogramTest, EmptySnapshotQuantileIsZero) {
  Histogram histogram({1.0, 2.0});
  EXPECT_DOUBLE_EQ(histogram.Snapshot().p99(), 0.0);
}

TEST(HistogramTest, EightThreadsNeverLoseObservations) {
  Histogram histogram(Histogram::DefaultLatencyBucketsMs());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Observe(static_cast<double>(t));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(histogram.Snapshot().count, kThreads * kPerThread);
}

TEST(RegistryTest, SameNameReturnsSameHandle) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("ops_total");
  Counter* b = registry.GetCounter("ops_total");
  EXPECT_EQ(a, b);
  Histogram* h1 = registry.GetHistogram("lat_ms", {1.0, 2.0});
  Histogram* h2 = registry.GetHistogram("lat_ms", {1.0, 2.0});
  EXPECT_EQ(h1, h2);
}

TEST(RegistryTest, SnapshotIsDeterministicAcrossShardAssignments) {
  // The same increments issued from different threads (thus different
  // shards) must snapshot to the same merged values.
  MetricsRegistry a;
  MetricsRegistry b;
  a.GetCounter("x_total")->Increment(7);
  std::thread shard_hopper([&b] { b.GetCounter("x_total")->Increment(3); });
  shard_hopper.join();
  b.GetCounter("x_total")->Increment(4);
  EXPECT_EQ(a.Snapshot().counters["x_total"],
            b.Snapshot().counters["x_total"]);
  EXPECT_EQ(a.Snapshot().ToJson(), b.Snapshot().ToJson());
}

/// Fills one registry with one metric of each kind, with exactly the
/// observations the export goldens below encode.
void FillGoldenRegistry(MetricsRegistry* registry) {
  registry->GetCounter("requests_total")->Increment(3);
  registry->GetGauge("pool_size")->Set(2.5);
  Histogram* histogram = registry->GetHistogram("lat_ms", {1.0, 2.5});
  histogram->Observe(0.5);
  histogram->Observe(2.0);
  histogram->Observe(7.0);
}

TEST(ExportTest, PrometheusTextGolden) {
  MetricsRegistry registry;
  FillGoldenRegistry(&registry);
  EXPECT_EQ(registry.Snapshot().ToPrometheusText(),
            "# TYPE requests_total counter\n"
            "requests_total 3\n"
            "# TYPE pool_size gauge\n"
            "pool_size 2.5\n"
            "# TYPE lat_ms histogram\n"
            "lat_ms_bucket{le=\"1\"} 1\n"
            "lat_ms_bucket{le=\"2.5\"} 2\n"
            "lat_ms_bucket{le=\"+Inf\"} 3\n"
            "lat_ms_sum 9.5\n"
            "lat_ms_count 3\n");
}

TEST(ExportTest, JsonGolden) {
  MetricsRegistry registry;
  FillGoldenRegistry(&registry);
  // p50: rank 2 of 3 falls in the (1, 2.5] bucket and lands on its upper
  // bound; p95/p99 cross into the +Inf bucket, which reports its lower
  // bound (2.5).
  EXPECT_EQ(registry.Snapshot().ToJson(),
            "{\n"
            "  \"counters\": {\n"
            "    \"requests_total\": 3\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"pool_size\": 2.5\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"lat_ms\": {\"count\": 3, \"sum\": 9.5, \"p50\": 2.5, "
            "\"p95\": 2.5, \"p99\": 2.5, \"buckets\": [{\"le\": 1, "
            "\"count\": 1}, {\"le\": 2.5, \"count\": 1}, {\"le\": \"+Inf\", "
            "\"count\": 1}]}\n"
            "  }\n"
            "}\n");
}

TEST(ExportTest, EmptyRegistryExports) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.Snapshot().ToPrometheusText(), "");
  EXPECT_EQ(registry.Snapshot().ToJson(),
            "{\n"
            "  \"counters\": {},\n"
            "  \"gauges\": {},\n"
            "  \"histograms\": {}\n"
            "}\n");
}

TEST(CacheMetricsTest, ExecutorExportsCacheCountersAndBytes) {
  // A cache-enabled executor must surface the §9 cache series through
  // the same registry as the query counters: warm repeats drive
  // ksp_cache_hits_total up, and the bytes gauge tracks residency.
  auto kb = BuildFigure1KnowledgeBase();
  ASSERT_TRUE(kb.ok());
  KspOptions options;
  options.cache_budget_bytes = kCacheUnlimited;
  KspDatabase db(kb->get(), options);
  db.PrepareAll(3);

  MetricsRegistry registry;
  QueryExecutor executor(&db);
  executor.set_metrics(&registry);
  const KspQuery query = db.MakeQuery(kQ1, Figure1QueryKeywords(), 2);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(executor.ExecuteSpp(query).ok());
  }

  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_GT(snapshot.counters["ksp_cache_hits_total"], 0u);
  EXPECT_GT(snapshot.counters["ksp_cache_misses_total"], 0u);
  EXPECT_EQ(snapshot.counters["ksp_cache_evictions_total"], 0u);
  EXPECT_GT(snapshot.gauges["ksp_cache_bytes_total"], 0.0);
  EXPECT_DOUBLE_EQ(snapshot.gauges["ksp_cache_bytes_total"],
                   static_cast<double>(db.semantic_cache()->TotalBytes()));

  // And they reach the Prometheus exposition format by name.
  const std::string text = snapshot.ToPrometheusText();
  EXPECT_NE(text.find("ksp_cache_hits_total"), std::string::npos);
  EXPECT_NE(text.find("ksp_cache_misses_total"), std::string::npos);
  EXPECT_NE(text.find("ksp_cache_evictions_total"), std::string::npos);
  EXPECT_NE(text.find("ksp_cache_bytes_total"), std::string::npos);
}

TEST(CacheMetricsTest, CacheDisabledExportsZeroSeries) {
  // Budget 0: the series still exist (dashboards see a flat zero, not a
  // missing metric), but nothing ever hits and the gauge stays 0.
  auto kb = BuildFigure1KnowledgeBase();
  ASSERT_TRUE(kb.ok());
  KspDatabase db(kb->get());
  db.PrepareAll(3);
  ASSERT_EQ(db.semantic_cache(), nullptr);

  MetricsRegistry registry;
  QueryExecutor executor(&db);
  executor.set_metrics(&registry);
  const KspQuery query = db.MakeQuery(kQ1, Figure1QueryKeywords(), 2);
  ASSERT_TRUE(executor.ExecuteSpp(query).ok());

  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters["ksp_cache_hits_total"], 0u);
  EXPECT_EQ(snapshot.counters["ksp_cache_misses_total"], 0u);
  EXPECT_DOUBLE_EQ(snapshot.gauges["ksp_cache_bytes_total"], 0.0);
}

TEST(ExportTest, ConcurrentScrapeWhileWritingIsSafe) {
  // Scraping mid-write must be TSan-clean and never read torn values —
  // the snapshot may lag but each counter is monotone.
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("ops_total");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) counter->Increment();
  });
  uint64_t last = 0;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t now = registry.Snapshot().counters["ops_total"];
    EXPECT_GE(now, last);
    last = now;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

}  // namespace
}  // namespace ksp
