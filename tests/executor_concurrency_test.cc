// Concurrency contract of the database/executor split: eight
// QueryExecutors on eight threads over one immutable KspDatabase must
// produce bit-identical results and equal summed work counters to a
// single executor, and, sharing one MetricsRegistry as the server's
// workers do, must leave the registry equal to the summed stats. This is
// the primary TSan target (build with -DKSP_SANITIZE=thread).

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "core/database.h"
#include "core/executor.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"
#include "executor_threads.h"

namespace ksp {
namespace {

constexpr size_t kThreads = 8;

void ExpectSameResults(const std::vector<KspResult>& a,
                       const std::vector<KspResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].entries.size(), b[i].entries.size()) << "query " << i;
    for (size_t j = 0; j < a[i].entries.size(); ++j) {
      // Bit-identical, not approximately equal: the same deterministic
      // float operations must run regardless of which thread runs them.
      EXPECT_EQ(a[i].entries[j].score, b[i].entries[j].score);
      EXPECT_EQ(a[i].entries[j].looseness, b[i].entries[j].looseness);
      EXPECT_EQ(a[i].entries[j].spatial_distance,
                b[i].entries[j].spatial_distance);
      EXPECT_EQ(a[i].entries[j].place, b[i].entries[j].place);
    }
  }
}

class ExecutorConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto kb = GenerateKnowledgeBase(SyntheticProfile::DBpediaLike(2500));
    ASSERT_TRUE(kb.ok());
    kb_ = std::move(*kb);
    db_ = std::make_unique<KspDatabase>(kb_.get());
    db_->PrepareAll(3);
    QueryGenOptions qopt;
    qopt.num_keywords = 4;
    qopt.k = 5;
    qopt.seed = 4242;
    queries_ = GenerateQueries(*kb_, QueryClass::kOriginal, qopt, 24);
    ASSERT_FALSE(queries_.empty());
  }

  std::unique_ptr<KnowledgeBase> kb_;
  std::unique_ptr<KspDatabase> db_;
  std::vector<KspQuery> queries_;
};

TEST_F(ExecutorConcurrencyTest, EightWorkersMatchOneForEveryAlgorithm) {
  for (KspAlgorithm algorithm :
       {KspAlgorithm::kBsp, KspAlgorithm::kSpp, KspAlgorithm::kSp,
        KspAlgorithm::kTa, KspAlgorithm::kKeywordOnly}) {
    SCOPED_TRACE(KspAlgorithmName(algorithm));
    QueryExecutor reference(db_.get());
    std::vector<KspResult> expected;
    QueryStats s;
    for (const KspQuery& q : queries_) {
      QueryStats stats;
      auto r = reference.Execute(algorithm, q, &stats);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      expected.push_back(std::move(*r));
      s.Accumulate(stats);
    }

    const ThreadedRun got =
        RunOnThreads(*db_, algorithm, queries_, kThreads);
    ExpectSameResults(expected, got.results);

    // Work counters are per-query deterministic, so the sums must agree
    // exactly however the queries were spread over the threads.
    const QueryStats& p = got.totals;
    EXPECT_EQ(p.tqsp_computations, s.tqsp_computations);
    EXPECT_EQ(p.rtree_nodes_accessed, s.rtree_nodes_accessed);
    EXPECT_EQ(p.vertices_visited, s.vertices_visited);
    EXPECT_EQ(p.reachability_queries, s.reachability_queries);
    EXPECT_EQ(p.pruned_unqualified, s.pruned_unqualified);
    EXPECT_EQ(p.pruned_dynamic_bound, s.pruned_dynamic_bound);
    EXPECT_EQ(p.pruned_alpha_place, s.pruned_alpha_place);
    EXPECT_EQ(p.pruned_alpha_node, s.pruned_alpha_node);
    EXPECT_EQ(p.completed, s.completed);
  }
}

TEST_F(ExecutorConcurrencyTest, RawExecutorsShareOneDatabaseSafely) {
  // Eight threads, each with its own stack QueryExecutor, all running
  // the full query list against the same database at once. Every thread
  // must reproduce the reference answers exactly.
  QueryExecutor reference(db_.get());
  std::vector<KspResult> expected;
  for (const KspQuery& q : queries_) {
    auto r = reference.ExecuteSp(q);
    ASSERT_TRUE(r.ok());
    expected.push_back(std::move(*r));
  }

  std::vector<std::vector<KspResult>> per_thread(kThreads);
  std::vector<Status> errors(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      QueryExecutor executor(db_.get());
      for (const KspQuery& q : queries_) {
        auto r = executor.ExecuteSp(q);
        if (!r.ok()) {
          errors[t] = r.status();
          return;
        }
        per_thread[t].push_back(std::move(*r));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(errors[t].ok()) << "thread " << t << ": "
                                << errors[t].ToString();
    ExpectSameResults(expected, per_thread[t]);
  }
}

TEST_F(ExecutorConcurrencyTest, SharedRegistryMatchesSummedStats) {
  // The server's workers feed one registry from every thread; its
  // counters must account for each query exactly once.
  MetricsRegistry registry;
  const ThreadedRun run = RunOnThreads(*db_, KspAlgorithm::kSpp, queries_,
                                       kThreads, &registry);
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters["ksp_queries_total"], queries_.size());
  EXPECT_EQ(snapshot.counters["ksp_tqsp_computations_total"],
            run.totals.tqsp_computations);
  EXPECT_EQ(snapshot.counters["ksp_bfs_vertices_visited_total"],
            run.totals.vertices_visited);
  EXPECT_EQ(snapshot.histograms["ksp_query_latency_ms"].count,
            queries_.size());
  EXPECT_GT(run.totals.tqsp_computations, 0u);
}

}  // namespace
}  // namespace ksp
