// The cache exactness contract (DESIGN.md §9): with caching enabled at
// ANY budget, every query's top-k ids, scores, looseness values, and
// ordering are byte-identical to the uncached run — cold cache, warm
// cache (every query asked twice), and across eight threads whose
// executors share one cache. 210 seeded queries spanning the paper's
// kOriginal and kSDLL workloads, three algorithms, k ∈ {1, 10}, and the
// three budget regimes {0 (pass-through), 64 KiB (eviction pressure),
// unlimited (every entry sticks)}.

#include <gtest/gtest.h>

#include <cstddef>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/executor.h"
#include "core/semantic_cache.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"
#include "executor_threads.h"
#include "query_corpus.h"

namespace ksp {
namespace {

constexpr size_t k64KiB = 64 * 1024;

using ExecuteFn = Result<KspResult> (QueryExecutor::*)(const KspQuery&,
                                                       QueryStats*);

struct AlgorithmCase {
  const char* name;
  ExecuteFn fn;
  KspAlgorithm algorithm;
};

constexpr AlgorithmCase kAlgorithms[] = {
    {"BSP", &QueryExecutor::ExecuteBsp, KspAlgorithm::kBsp},
    {"SPP", &QueryExecutor::ExecuteSpp, KspAlgorithm::kSpp},
    {"SP", &QueryExecutor::ExecuteSp, KspAlgorithm::kSp},
};

void ExpectIdentical(const KspResult& got, const KspResult& want,
                     const char* algorithm, size_t query_index,
                     const char* pass) {
  ASSERT_EQ(got.entries.size(), want.entries.size())
      << algorithm << " query " << query_index << " (" << pass << ")";
  for (size_t i = 0; i < want.entries.size(); ++i) {
    // EXPECT_EQ on doubles is exact comparison — the contract is
    // byte-identity, not approximate equality.
    EXPECT_EQ(got.entries[i].place, want.entries[i].place)
        << algorithm << " query " << query_index << " rank " << i << " ("
        << pass << ")";
    EXPECT_EQ(got.entries[i].score, want.entries[i].score)
        << algorithm << " query " << query_index << " rank " << i << " ("
        << pass << ")";
    EXPECT_EQ(got.entries[i].looseness, want.entries[i].looseness)
        << algorithm << " query " << query_index << " rank " << i << " ("
        << pass << ")";
  }
}

class CacheEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto kb = GenerateKnowledgeBase(SyntheticProfile::DBpediaLike(1500));
    ASSERT_TRUE(kb.ok()) << kb.status().ToString();
    kb_ = kb->release();

    // The shared 210-query seeded workload (tests/query_corpus.h),
    // alternating k between 1 and 10.
    queries_ = new std::vector<KspQuery>();
    *queries_ = testing::MakeEquivalenceCorpus(*kb_);
    ASSERT_EQ(queries_->size(), 210u);
    for (size_t i = 0; i < queries_->size(); ++i) {
      (*queries_)[i].k = (i % 2 == 0) ? 1 : 10;
    }

    // Uncached ground truth, one result list per algorithm.
    auto* db = new KspDatabase(kb_);
    db->PrepareAll(3);
    baseline_ = new std::vector<std::vector<KspResult>>();
    QueryExecutor executor(db);
    for (const AlgorithmCase& algo : kAlgorithms) {
      std::vector<KspResult> results;
      results.reserve(queries_->size());
      for (const KspQuery& query : *queries_) {
        auto result = (executor.*algo.fn)(query, nullptr);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        results.push_back(std::move(*result));
      }
      baseline_->push_back(std::move(results));
    }
    delete db;
  }

  static void TearDownTestSuite() {
    delete baseline_;
    baseline_ = nullptr;
    delete queries_;
    queries_ = nullptr;
    delete kb_;
    kb_ = nullptr;
  }

  static std::unique_ptr<KspDatabase> MakeCachedDb(size_t budget) {
    KspOptions options;
    options.cache_budget_bytes = budget;
    auto db = std::make_unique<KspDatabase>(kb_, options);
    db->PrepareAll(3);
    return db;
  }

  /// Runs every query twice (cold then warm) on a fresh database with
  /// the given budget and checks byte-identity against the uncached
  /// baseline on both passes. Sums the warm pass's stats into
  /// `*warm_sum` (out param: ASSERT_* requires a void function).
  void RunColdWarm(size_t budget, QueryStats* warm_sum) {
    auto db = MakeCachedDb(budget);
    QueryExecutor executor(db.get());
    for (size_t a = 0; a < std::size(kAlgorithms); ++a) {
      const AlgorithmCase& algo = kAlgorithms[a];
      for (size_t i = 0; i < queries_->size(); ++i) {
        auto cold = (executor.*algo.fn)((*queries_)[i], nullptr);
        ASSERT_TRUE(cold.ok()) << cold.status().ToString();
        ExpectIdentical(*cold, (*baseline_)[a][i], algo.name, i, "cold");
        QueryStats stats;
        auto warm = (executor.*algo.fn)((*queries_)[i], &stats);
        ASSERT_TRUE(warm.ok()) << warm.status().ToString();
        ExpectIdentical(*warm, (*baseline_)[a][i], algo.name, i, "warm");
        warm_sum->Accumulate(stats);
      }
      if (budget != 0 && budget != kCacheUnlimited) {
        ASSERT_NE(db->semantic_cache(), nullptr);
        EXPECT_LE(db->semantic_cache()->TotalBytes(), budget);
      }
    }
  }

  static const KnowledgeBase* kb_;
  static std::vector<KspQuery>* queries_;
  /// baseline_[algorithm index][query index], aligned with kAlgorithms.
  static std::vector<std::vector<KspResult>>* baseline_;
};

const KnowledgeBase* CacheEquivalenceTest::kb_ = nullptr;
std::vector<KspQuery>* CacheEquivalenceTest::queries_ = nullptr;
std::vector<std::vector<KspResult>>* CacheEquivalenceTest::baseline_ =
    nullptr;

TEST_F(CacheEquivalenceTest, ZeroBudgetIsExactPassThrough) {
  // budget 0 constructs no cache at all; this is the control arm proving
  // the harness itself agrees with the baseline.
  QueryStats warm;
  RunColdWarm(0, &warm);
  EXPECT_EQ(warm.dg_cache_hits, 0u);
  EXPECT_EQ(warm.result_cache_hits, 0u);
}

TEST_F(CacheEquivalenceTest, SmallBudgetEvictsButStaysExact) {
  QueryStats warm;
  RunColdWarm(k64KiB, &warm);
  // 64 KiB over 630 cold queries forces evictions; exactness held above.
  EXPECT_GT(warm.dg_cache_hits + warm.result_cache_hits +
                warm.dg_cache_misses + warm.result_cache_misses,
            0u);
}

TEST_F(CacheEquivalenceTest, UnlimitedBudgetServesEveryWarmQueryFromCache) {
  QueryStats warm;
  RunColdWarm(kCacheUnlimited, &warm);
  // Nothing evicts, so every warm query is answered straight from the
  // result layer: one hit per (algorithm, query) pair.
  EXPECT_EQ(warm.result_cache_hits,
            std::size(kAlgorithms) * queries_->size());
  EXPECT_EQ(warm.result_cache_misses, 0u);
  EXPECT_EQ(warm.cache_evictions, 0u);
}

TEST_F(CacheEquivalenceTest, PoolWorkersSharingOneCacheStayExact) {
  // Eight worker threads, one executor each, race on the shared cache:
  // the first pass populates it concurrently, the second hits it
  // concurrently. Results must remain positionally byte-identical to the
  // uncached baseline in both.
  for (size_t budget : {k64KiB, kCacheUnlimited}) {
    auto db = MakeCachedDb(budget);
    for (size_t a = 0; a < std::size(kAlgorithms); ++a) {
      for (const char* pass : {"threads-cold", "threads-warm"}) {
        const ThreadedRun run = RunOnThreads(
            *db, kAlgorithms[a].algorithm, *queries_, /*num_threads=*/8);
        for (size_t i = 0; i < run.results.size(); ++i) {
          ExpectIdentical(run.results[i], (*baseline_)[a][i],
                          kAlgorithms[a].name, i, pass);
        }
      }
    }
  }
}

TEST_F(CacheEquivalenceTest, InvalidationAfterReloadKeepsAnswersExact) {
  // LoadIndexes swaps index generations and must drop the cache; the
  // post-reload cold pass still matches the baseline (a stale cache
  // would replay distances from the dropped generation).
  auto db = MakeCachedDb(kCacheUnlimited);
  QueryExecutor executor(db.get());
  const AlgorithmCase& algo = kAlgorithms[1];  // SPP
  for (size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE((executor.*algo.fn)((*queries_)[i], nullptr).ok());
  }
  ASSERT_GT(db->semantic_cache()->TotalBytes(), 0u);

  const std::string dir = ::testing::TempDir() + "/cache_equiv_reload";
  ASSERT_TRUE(db->SaveIndexes(dir).ok());
  ASSERT_TRUE(db->LoadIndexes(dir).ok());
  EXPECT_EQ(db->semantic_cache()->TotalBytes(), 0u);

  for (size_t i = 0; i < 40; ++i) {
    QueryStats stats;
    auto result = (executor.*algo.fn)((*queries_)[i], &stats);
    ASSERT_TRUE(result.ok());
    ExpectIdentical(*result, (*baseline_)[1][i], algo.name, i,
                    "post-reload");
  }
}

}  // namespace
}  // namespace ksp
