// Cross-thread-count determinism of the intra-query pipeline
// (DESIGN.md §8): BSP, SPP and SP answered with intra_query_threads ∈
// {1, 2, 4, 8} must produce byte-identical KspResults — places, scores,
// loosenesses, spatial distances, and full TQSP trees — and identical
// committed QueryStats counters (prunes, visits, node accesses) on 210
// seeded queries. Any divergence means the ordered-commit replay failed
// to reconstruct the sequential decision sequence.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/metrics.h"
#include "core/database.h"
#include "core/executor.h"
#include "core/parallel.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"
#include "query_corpus.h"
#include "rdf/knowledge_base.h"

namespace ksp {
namespace {

struct QueryOutcome {
  KspResult result;
  QueryStats stats;
};

void ExpectIdenticalEntry(const KspResultEntry& got,
                          const KspResultEntry& want, const char* name,
                          size_t qi, size_t rank, uint32_t threads) {
  SCOPED_TRACE(::testing::Message()
               << name << " query " << qi << " rank " << rank
               << " threads=" << threads);
  EXPECT_EQ(got.place, want.place);
  EXPECT_EQ(got.looseness, want.looseness);
  EXPECT_EQ(got.spatial_distance, want.spatial_distance);
  EXPECT_EQ(got.score, want.score);
  // The full TQSP tree: the workers' BFS is the same code over the same
  // context, so even paths and match order must agree.
  EXPECT_EQ(got.tree.place, want.tree.place);
  EXPECT_EQ(got.tree.root, want.tree.root);
  EXPECT_EQ(got.tree.looseness, want.tree.looseness);
  ASSERT_EQ(got.tree.matches.size(), want.tree.matches.size());
  for (size_t m = 0; m < got.tree.matches.size(); ++m) {
    EXPECT_EQ(got.tree.matches[m].term, want.tree.matches[m].term);
    EXPECT_EQ(got.tree.matches[m].vertex, want.tree.matches[m].vertex);
    EXPECT_EQ(got.tree.matches[m].distance, want.tree.matches[m].distance);
    EXPECT_EQ(got.tree.matches[m].path, want.tree.matches[m].path);
  }
}

/// The determinism contract: every committed counter, not the times.
void ExpectIdenticalStats(const QueryStats& got, const QueryStats& want,
                          const char* name, size_t qi, uint32_t threads) {
  SCOPED_TRACE(::testing::Message()
               << name << " query " << qi << " threads=" << threads);
  EXPECT_EQ(got.completed, want.completed);
  EXPECT_EQ(got.tqsp_computations, want.tqsp_computations);
  EXPECT_EQ(got.rtree_nodes_accessed, want.rtree_nodes_accessed);
  EXPECT_EQ(got.vertices_visited, want.vertices_visited);
  EXPECT_EQ(got.reachability_queries, want.reachability_queries);
  EXPECT_EQ(got.pruned_unqualified, want.pruned_unqualified);
  EXPECT_EQ(got.pruned_dynamic_bound, want.pruned_dynamic_bound);
  EXPECT_EQ(got.pruned_alpha_place, want.pruned_alpha_place);
  EXPECT_EQ(got.pruned_alpha_node, want.pruned_alpha_node);
}

class IntraQueryParallelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto kb = GenerateKnowledgeBase(SyntheticProfile::DBpediaLike(1500));
    ASSERT_TRUE(kb.ok()) << kb.status().ToString();
    kb_ = kb->release();
    db_ = new KspDatabase(kb_);
    db_->PrepareAll(/*alpha=*/3);

    // The oracle suite's seeded workload (tests/query_corpus.h), with k
    // cycling {1, 5, 10}.
    *queries_ = testing::MakeEquivalenceCorpus(*kb_);
    ASSERT_GE(queries_->size(), 210u);
    const uint32_t ks[3] = {1, 5, 10};
    for (size_t qi = 0; qi < queries_->size(); ++qi) {
      (*queries_)[qi].k = ks[qi % 3];
    }
  }

  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
    delete kb_;
    kb_ = nullptr;
    queries_->clear();
  }

  using Execute = Result<KspResult> (QueryExecutor::*)(const KspQuery&,
                                                       QueryStats*);

  /// Answers the whole workload on one executor configured for `threads`.
  static std::vector<QueryOutcome> RunAll(Execute execute, uint32_t threads,
                                          const char* name) {
    QueryExecutor executor(db_);
    executor.set_intra_query_threads(threads);
    std::vector<QueryOutcome> outcomes(queries_->size());
    for (size_t qi = 0; qi < queries_->size(); ++qi) {
      auto result = (executor.*execute)((*queries_)[qi], &outcomes[qi].stats);
      EXPECT_TRUE(result.ok()) << name << " query " << qi << " threads="
                               << threads << ": "
                               << result.status().ToString();
      if (result.ok()) outcomes[qi].result = std::move(*result);
    }
    return outcomes;
  }

  void CheckAlgorithm(Execute execute, const char* name) {
    const std::vector<QueryOutcome> sequential = RunAll(execute, 1, name);
    size_t nonempty = 0;
    for (const QueryOutcome& outcome : sequential) {
      // The sequential path never speculates.
      ASSERT_EQ(outcome.stats.speculative_wasted_tqsp, 0u);
      if (!outcome.result.entries.empty()) ++nonempty;
    }
    // Guard against a vacuous workload.
    ASSERT_GT(nonempty, queries_->size() / 2);

    for (uint32_t threads : {2u, 4u, 8u}) {
      const std::vector<QueryOutcome> parallel =
          RunAll(execute, threads, name);
      for (size_t qi = 0; qi < sequential.size(); ++qi) {
        const KspResult& want = sequential[qi].result;
        const KspResult& got = parallel[qi].result;
        ASSERT_EQ(got.entries.size(), want.entries.size())
            << name << " query " << qi << " threads=" << threads;
        for (size_t i = 0; i < want.entries.size(); ++i) {
          ExpectIdenticalEntry(got.entries[i], want.entries[i], name, qi, i,
                               threads);
        }
        ExpectIdenticalStats(parallel[qi].stats, sequential[qi].stats, name,
                             qi, threads);
      }
    }
  }

  static KnowledgeBase* kb_;
  static KspDatabase* db_;
  static std::vector<KspQuery>* queries_;
};

KnowledgeBase* IntraQueryParallelTest::kb_ = nullptr;
KspDatabase* IntraQueryParallelTest::db_ = nullptr;
std::vector<KspQuery>* IntraQueryParallelTest::queries_ =
    new std::vector<KspQuery>();

TEST_F(IntraQueryParallelTest, BspDeterministicAcrossThreadCounts) {
  CheckAlgorithm(&QueryExecutor::ExecuteBsp, "BSP");
}

TEST_F(IntraQueryParallelTest, SppDeterministicAcrossThreadCounts) {
  CheckAlgorithm(&QueryExecutor::ExecuteSpp, "SPP");
}

TEST_F(IntraQueryParallelTest, SpDeterministicAcrossThreadCounts) {
  CheckAlgorithm(&QueryExecutor::ExecuteSp, "SP");
}

TEST_F(IntraQueryParallelTest, KZeroAndUnanswerableEdgeCases) {
  QueryExecutor executor(db_);
  executor.set_intra_query_threads(4);
  // k = 0: θ = -inf terminates the commit at the very first stream item.
  KspQuery query = (*queries_)[0];
  query.k = 0;
  for (auto execute :
       {&QueryExecutor::ExecuteBsp, &QueryExecutor::ExecuteSpp,
        &QueryExecutor::ExecuteSp}) {
    auto result = (executor.*execute)(query, nullptr);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->entries.empty());
  }
  // Unanswerable (unknown keyword): the pipeline is never entered.
  KspQuery unanswerable = (*queries_)[0];
  unanswerable.keywords.push_back(kInvalidTerm);
  QueryStats stats;
  auto result = executor.ExecuteSpp(unanswerable, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->entries.empty());
  EXPECT_EQ(stats.tqsp_computations, 0u);
}

TEST_F(IntraQueryParallelTest, WastedSpeculationFlowsIntoMetrics) {
  MetricsRegistry registry;
  QueryExecutor executor(db_);
  executor.set_metrics(&registry);
  executor.set_intra_query_threads(4);
  uint64_t wasted_sum = 0;
  uint64_t committed_sum = 0;
  for (size_t qi = 0; qi < 30; ++qi) {
    QueryStats stats;
    ASSERT_TRUE(executor.ExecuteSpp((*queries_)[qi], &stats).ok());
    wasted_sum += stats.speculative_wasted_tqsp;
    committed_sum += stats.tqsp_computations;
  }
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters["ksp_speculative_wasted_tqsp_total"],
            wasted_sum);
  EXPECT_EQ(snapshot.counters["ksp_tqsp_computations_total"], committed_sum);
}

TEST_F(IntraQueryParallelTest, ExplainStaysSequentialUnderParallelism) {
  QueryExecutor executor(db_);
  executor.set_intra_query_threads(8);
  // EXPLAIN needs the sequential candidate walk; the executor must fall
  // back even with parallelism configured.
  auto report = executor.Explain((*queries_)[0], KspAlgorithm::kSpp);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->termination.empty());
}

}  // namespace
}  // namespace ksp
