// Pins QueryStats::Accumulate's field-by-field merge semantics. The
// static_assert below forces anyone adding a QueryStats field to revisit
// Accumulate (and this test) — a silently dropped field corrupts every
// summed report (sharded runs, bench workloads).

#include <gtest/gtest.h>

#include "core/stats.h"

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

}  // namespace
}  // namespace ksp
