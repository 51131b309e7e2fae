// Pins QueryStats::Accumulate's field-by-field merge semantics, both
// directly and through the QueryExecutorPool::Run merge path. The
// static_assert below forces anyone adding a QueryStats field to revisit
// Accumulate (and this test) — a silently dropped field corrupts every
// batch report.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/database.h"
#include "core/parallel.h"
#include "core/stats.h"
#include "datagen/fixtures.h"

namespace ksp {
namespace {

// 2 doubles + 18 uint64 counters + bool (padded) on LP64. If this fires,
// a field was added or removed: update Accumulate, the field checks
// below, and RecordQueryMetrics in executor.cc, then re-pin the size.
static_assert(sizeof(QueryStats) == 168,
              "QueryStats layout changed — audit Accumulate() and every "
              "consumer before re-pinning this size");

QueryStats MakeDistinct(int base) {
  QueryStats s;
  s.total_ms = base + 0.5;
  s.semantic_ms = base + 0.25;
  s.tqsp_computations = base + 1;
  s.rtree_nodes_accessed = base + 2;
  s.vertices_visited = base + 3;
  s.reachability_queries = base + 4;
  s.pruned_unqualified = base + 5;
  s.pruned_dynamic_bound = base + 6;
  s.pruned_alpha_place = base + 7;
  s.pruned_alpha_node = base + 8;
  s.dg_cache_hits = base + 10;
  s.dg_cache_misses = base + 11;
  s.result_cache_hits = base + 12;
  s.result_cache_misses = base + 13;
  s.cache_evictions = base + 14;
  s.bufferpool_hits = base + 15;
  s.bufferpool_misses = base + 16;
  s.bufferpool_evictions = base + 17;
  s.shards_visited = base + 18;
  s.shards_pruned = base + 19;
  s.completed = true;
  return s;
}

TEST(QueryStatsTest, AccumulateMergesEveryField) {
  QueryStats a = MakeDistinct(100);
  const QueryStats b = MakeDistinct(1000);
  a.Accumulate(b);
  EXPECT_DOUBLE_EQ(a.total_ms, 100.5 + 1000.5);
  EXPECT_DOUBLE_EQ(a.semantic_ms, 100.25 + 1000.25);
  EXPECT_EQ(a.tqsp_computations, 101u + 1001u);
  EXPECT_EQ(a.rtree_nodes_accessed, 102u + 1002u);
  EXPECT_EQ(a.vertices_visited, 103u + 1003u);
  EXPECT_EQ(a.reachability_queries, 104u + 1004u);
  EXPECT_EQ(a.pruned_unqualified, 105u + 1005u);
  EXPECT_EQ(a.pruned_dynamic_bound, 106u + 1006u);
  EXPECT_EQ(a.pruned_alpha_place, 107u + 1007u);
  EXPECT_EQ(a.pruned_alpha_node, 108u + 1008u);
  EXPECT_EQ(a.dg_cache_hits, 110u + 1010u);
  EXPECT_EQ(a.dg_cache_misses, 111u + 1011u);
  EXPECT_EQ(a.result_cache_hits, 112u + 1012u);
  EXPECT_EQ(a.result_cache_misses, 113u + 1013u);
  EXPECT_EQ(a.cache_evictions, 114u + 1014u);
  EXPECT_EQ(a.bufferpool_hits, 115u + 1015u);
  EXPECT_EQ(a.bufferpool_misses, 116u + 1016u);
  EXPECT_EQ(a.bufferpool_evictions, 117u + 1017u);
  EXPECT_EQ(a.shards_visited, 118u + 1018u);
  EXPECT_EQ(a.shards_pruned, 119u + 1019u);
  EXPECT_TRUE(a.completed);
}

TEST(QueryStatsTest, AccumulatePropagatesIncomplete) {
  QueryStats a;  // completed defaults true
  QueryStats timed_out;
  timed_out.completed = false;
  a.Accumulate(timed_out);
  EXPECT_FALSE(a.completed);
  // Incomplete is sticky: a later completed query does not wash it out.
  a.Accumulate(QueryStats());
  EXPECT_FALSE(a.completed);
}

TEST(QueryStatsTest, AccumulateFromDefaultIsIdentity) {
  QueryStats a = MakeDistinct(7);
  const QueryStats before = a;
  a.Accumulate(QueryStats());
  EXPECT_DOUBLE_EQ(a.total_ms, before.total_ms);
  EXPECT_EQ(a.tqsp_computations, before.tqsp_computations);
  EXPECT_EQ(a.pruned_alpha_node, before.pruned_alpha_node);
  EXPECT_EQ(a.completed, before.completed);
}

class PoolMergeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto kb = BuildFigure1KnowledgeBase();
    ASSERT_TRUE(kb.ok()) << kb.status().ToString();
    kb_ = std::move(kb).value();
    db_ = std::make_unique<KspDatabase>(kb_.get());
    db_->PrepareAll(/*alpha=*/3);
    for (int i = 0; i < 12; ++i) {
      queries_.push_back(db_->MakeQuery(i % 2 == 0 ? kQ1 : kQ2,
                                        Figure1QueryKeywords(), 2));
    }
  }

  std::unique_ptr<KnowledgeBase> kb_;
  std::unique_ptr<KspDatabase> db_;
  std::vector<KspQuery> queries_;
};

TEST_F(PoolMergeTest, PoolTotalsMatchPerQuerySums) {
  // Reference: the deterministic counters summed query-by-query.
  QueryStats expected;
  {
    QueryExecutor executor(db_.get());
    for (const KspQuery& query : queries_) {
      QueryStats stats;
      ASSERT_TRUE(executor.ExecuteSpp(query, &stats).ok());
      expected.Accumulate(stats);
    }
  }

  QueryExecutorPool pool(db_.get(), /*num_threads=*/3);
  BatchRunStats batch;
  auto results = pool.Run(queries_, KspAlgorithm::kSpp, &batch);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), queries_.size());

  // Work-stealing order varies; the deterministic counter sums must not.
  EXPECT_EQ(batch.totals.tqsp_computations, expected.tqsp_computations);
  EXPECT_EQ(batch.totals.rtree_nodes_accessed,
            expected.rtree_nodes_accessed);
  EXPECT_EQ(batch.totals.vertices_visited, expected.vertices_visited);
  EXPECT_EQ(batch.totals.reachability_queries,
            expected.reachability_queries);
  EXPECT_EQ(batch.totals.pruned_unqualified, expected.pruned_unqualified);
  EXPECT_EQ(batch.totals.pruned_dynamic_bound,
            expected.pruned_dynamic_bound);
  EXPECT_TRUE(batch.totals.completed);
  EXPECT_EQ(batch.worker_wall_ms.size(), 3u);
}

TEST_F(PoolMergeTest, PoolMergesWorkerMetricsRegistries) {
  QueryExecutorPool pool(db_.get(), /*num_threads=*/4);
  BatchRunStats batch;
  ASSERT_TRUE(pool.Run(queries_, KspAlgorithm::kSpp, &batch).ok());
  EXPECT_EQ(batch.metrics.counters["ksp_queries_total"], queries_.size());
  EXPECT_EQ(batch.metrics.counters["ksp_tqsp_computations_total"],
            batch.totals.tqsp_computations);
  EXPECT_EQ(batch.metrics.counters["ksp_bfs_vertices_visited_total"],
            batch.totals.vertices_visited);
  EXPECT_EQ(batch.metrics.histograms["ksp_query_latency_ms"].count,
            queries_.size());

  // Registries are cumulative over the pool lifetime: a second batch
  // doubles the query count.
  BatchRunStats batch2;
  ASSERT_TRUE(pool.Run(queries_, KspAlgorithm::kSpp, &batch2).ok());
  EXPECT_EQ(batch2.metrics.counters["ksp_queries_total"],
            2 * queries_.size());
}

TEST_F(PoolMergeTest, SingleThreadedBatchFillsMetricsToo) {
  BatchRunOptions options;
  options.algorithm = KspAlgorithm::kSp;
  options.num_threads = 1;
  BatchRunStats batch;
  auto results = RunQueryBatch(*db_, queries_, options, &batch);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  EXPECT_EQ(batch.metrics.counters["ksp_queries_total"], queries_.size());
  EXPECT_EQ(batch.worker_wall_ms.size(), 1u);
  EXPECT_EQ(batch.metrics.counters["ksp_tqsp_computations_total"],
            batch.totals.tqsp_computations);
}

}  // namespace
}  // namespace ksp
