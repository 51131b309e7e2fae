// Backend invariance: the disk backend (accessor seams + buffer pool,
// DESIGN.md §10) must be observationally identical to the in-memory
// backend — same top-k entries, same prune decisions, same committed
// QueryStats counters — on every algorithm, across hundreds of seeded
// queries, under a pool budget small enough to force eviction traffic.
// Only the bufferpool_* counters (and timing) may differ between
// backends; they are asserted zero on the memory side and non-zero in
// aggregate on the disk side so the comparison cannot pass vacuously.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/executor.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"
#include "query_corpus.h"
#include "rdf/knowledge_base.h"

namespace ksp {
namespace {

/// Committed (backend-invariant) counters of one query. Excludes the
/// bufferpool_* trio, wall-clock fields, and the cache
/// counters that are outside the determinism contract.
void ExpectCommittedCountersEqual(const QueryStats& mem,
                                  const QueryStats& disk,
                                  const char* context) {
  EXPECT_EQ(mem.tqsp_computations, disk.tqsp_computations) << context;
  EXPECT_EQ(mem.rtree_nodes_accessed, disk.rtree_nodes_accessed) << context;
  EXPECT_EQ(mem.vertices_visited, disk.vertices_visited) << context;
  EXPECT_EQ(mem.reachability_queries, disk.reachability_queries) << context;
  EXPECT_EQ(mem.pruned_unqualified, disk.pruned_unqualified) << context;
  EXPECT_EQ(mem.pruned_dynamic_bound, disk.pruned_dynamic_bound) << context;
  EXPECT_EQ(mem.pruned_alpha_place, disk.pruned_alpha_place) << context;
  EXPECT_EQ(mem.pruned_alpha_node, disk.pruned_alpha_node) << context;
  EXPECT_EQ(mem.completed, disk.completed) << context;
}

void ExpectResultsEqual(const KspResult& mem, const KspResult& disk,
                        const char* context) {
  ASSERT_EQ(mem.entries.size(), disk.entries.size()) << context;
  for (size_t i = 0; i < mem.entries.size(); ++i) {
    ASSERT_EQ(mem.entries[i].place, disk.entries[i].place)
        << context << " rank " << i;
    ASSERT_DOUBLE_EQ(mem.entries[i].looseness, disk.entries[i].looseness)
        << context << " rank " << i;
    ASSERT_DOUBLE_EQ(mem.entries[i].spatial_distance,
                     disk.entries[i].spatial_distance)
        << context << " rank " << i;
    ASSERT_DOUBLE_EQ(mem.entries[i].score, disk.entries[i].score)
        << context << " rank " << i;
  }
}

class BackendInvarianceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto kb = GenerateKnowledgeBase(SyntheticProfile::DBpediaLike(1500));
    ASSERT_TRUE(kb.ok()) << kb.status().ToString();
    kb_ = kb->release();

    mem_db_ = new KspDatabase(kb_);
    mem_db_->PrepareAll(/*alpha=*/3);
    ASSERT_TRUE(mem_db_->storage_backend_status().ok());
    ASSERT_EQ(mem_db_->buffer_pool(), nullptr);

    // A pool budget far below the spilled index footprint, so queries
    // continuously evict and re-fetch pages — the regime the invariance
    // claim actually has to hold in.
    KspOptions options;
    options.backend = StorageBackend::kDisk;
    options.buffer_pool_budget_bytes = 1 << 20;
    disk_db_ = new KspDatabase(kb_, options);
    disk_db_->PrepareAll(/*alpha=*/3);
    ASSERT_TRUE(disk_db_->storage_backend_status().ok())
        << disk_db_->storage_backend_status().ToString();
    ASSERT_NE(disk_db_->buffer_pool(), nullptr);

    // Same seeded workload as the oracle suite (tests/query_corpus.h).
    *queries_ = testing::MakeEquivalenceCorpus(*kb_);
    ASSERT_GE(queries_->size(), 200u);
  }

  static void TearDownTestSuite() {
    delete disk_db_;
    disk_db_ = nullptr;
    delete mem_db_;
    mem_db_ = nullptr;
    delete kb_;
    kb_ = nullptr;
    queries_->clear();
  }

  using Execute = Result<KspResult> (QueryExecutor::*)(const KspQuery&,
                                                       QueryStats*);

  /// Runs every seeded query at every k on both backends and diffs
  /// results and committed counters.
  void CheckAlgorithm(Execute execute, const char* name) {
    QueryExecutor mem_exec(mem_db_);
    QueryExecutor disk_exec(disk_db_);
    uint64_t disk_fetches = 0;
    size_t nonempty = 0;
    for (size_t qi = 0; qi < queries_->size(); ++qi) {
      KspQuery query = (*queries_)[qi];
      for (uint32_t k : {1u, 5u, 10u}) {
        query.k = k;
        const std::string context_str = std::string(name) + " query " +
                                        std::to_string(qi) + " k=" +
                                        std::to_string(k);
        const char* context = context_str.c_str();

        QueryStats mem_stats;
        auto mem_result = (mem_exec.*execute)(query, &mem_stats);
        ASSERT_TRUE(mem_result.ok())
            << context << ": " << mem_result.status().ToString();

        QueryStats disk_stats;
        auto disk_result = (disk_exec.*execute)(query, &disk_stats);
        ASSERT_TRUE(disk_result.ok())
            << context << ": " << disk_result.status().ToString();

        ExpectResultsEqual(*mem_result, *disk_result, context);
        ExpectCommittedCountersEqual(mem_stats, disk_stats, context);

        // The memory backend must not report page I/O, ever.
        ASSERT_EQ(mem_stats.bufferpool_hits, 0u) << context;
        ASSERT_EQ(mem_stats.bufferpool_misses, 0u) << context;
        ASSERT_EQ(mem_stats.bufferpool_evictions, 0u) << context;
        disk_fetches +=
            disk_stats.bufferpool_hits + disk_stats.bufferpool_misses;
        if (!mem_result->entries.empty()) ++nonempty;
      }
    }
    // Non-vacuity: the workload produced results, and the disk side
    // actually went through the pool.
    EXPECT_GT(nonempty, queries_->size());
    EXPECT_GT(disk_fetches, 0u) << name;
  }

  static KnowledgeBase* kb_;
  static KspDatabase* mem_db_;
  static KspDatabase* disk_db_;
  static std::vector<KspQuery>* queries_;
};

KnowledgeBase* BackendInvarianceTest::kb_ = nullptr;
KspDatabase* BackendInvarianceTest::mem_db_ = nullptr;
KspDatabase* BackendInvarianceTest::disk_db_ = nullptr;
std::vector<KspQuery>* BackendInvarianceTest::queries_ =
    new std::vector<KspQuery>();

TEST_F(BackendInvarianceTest, BspMatchesAcrossBackends) {
  CheckAlgorithm(&QueryExecutor::ExecuteBsp, "BSP");
}

TEST_F(BackendInvarianceTest, SppMatchesAcrossBackends) {
  CheckAlgorithm(&QueryExecutor::ExecuteSpp, "SPP");
}

TEST_F(BackendInvarianceTest, SpMatchesAcrossBackends) {
  CheckAlgorithm(&QueryExecutor::ExecuteSp, "SP");
}

// TA runs a different engine (backward multi-source BFS over in-edges +
// incremental kNN pulls); a subset of the workload keeps the runtime in
// check while still covering both pull directions of its round-robin.
TEST_F(BackendInvarianceTest, TaMatchesAcrossBackendsOnSubset) {
  QueryExecutor mem_exec(mem_db_);
  QueryExecutor disk_exec(disk_db_);
  uint64_t disk_fetches = 0;
  for (size_t qi = 0; qi < queries_->size(); qi += 10) {
    KspQuery query = (*queries_)[qi];
    query.k = 5;
    const std::string context_str = "TA query " + std::to_string(qi);
    QueryStats mem_stats;
    auto mem_result = mem_exec.ExecuteTa(query, &mem_stats);
    ASSERT_TRUE(mem_result.ok()) << mem_result.status().ToString();
    QueryStats disk_stats;
    auto disk_result = disk_exec.ExecuteTa(query, &disk_stats);
    ASSERT_TRUE(disk_result.ok()) << disk_result.status().ToString();
    ExpectResultsEqual(*mem_result, *disk_result, context_str.c_str());
    ExpectCommittedCountersEqual(mem_stats, disk_stats,
                                 context_str.c_str());
    disk_fetches +=
        disk_stats.bufferpool_hits + disk_stats.bufferpool_misses;
  }
  EXPECT_GT(disk_fetches, 0u);
}

// Semantic cache over the disk backend: a second pass over the same
// workload must return results identical to the uncached disk reference
// even though most BFS work is then served from cache.
TEST_F(BackendInvarianceTest, SemanticCacheIsExactOnDiskBackend) {
  KspOptions options;
  options.backend = StorageBackend::kDisk;
  options.buffer_pool_budget_bytes = 1 << 20;
  options.cache_budget_bytes = 8 << 20;
  KspDatabase cached_db(kb_, options);
  cached_db.PrepareAll(/*alpha=*/3);
  ASSERT_TRUE(cached_db.storage_backend_status().ok())
      << cached_db.storage_backend_status().ToString();

  QueryExecutor reference(disk_db_);
  QueryExecutor cached(&cached_db);
  uint64_t cache_hits = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t qi = 0; qi < queries_->size(); qi += 5) {
      KspQuery query = (*queries_)[qi];
      query.k = 5;
      const std::string context_str = "cached-disk pass " +
                                      std::to_string(pass) + " query " +
                                      std::to_string(qi);
      auto want = reference.ExecuteSpp(query, nullptr);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      QueryStats stats;
      auto got = cached.ExecuteSpp(query, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectResultsEqual(*want, *got, context_str.c_str());
      cache_hits += stats.dg_cache_hits + stats.result_cache_hits;
    }
  }
  // The second pass must actually have been served (partly) from cache.
  EXPECT_GT(cache_hits, 0u);
}

}  // namespace
}  // namespace ksp
