// QueryExecutor session behaviour: the prepared-before-query contract,
// the finite-location check, the algorithm switch, the
// >64-distinct-keyword limit on the Result-returning TQSP API, and the
// BFS-epoch uint32_t wraparound path.

#include "core/executor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>

#include "datagen/fixtures.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"

namespace ksp {
namespace {

using ExecuteFn = Result<KspResult> (QueryExecutor::*)(const KspQuery&,
                                                       QueryStats*);

constexpr ExecuteFn kAllAlgorithms[] = {
    &QueryExecutor::ExecuteBsp, &QueryExecutor::ExecuteSpp,
    &QueryExecutor::ExecuteSp, &QueryExecutor::ExecuteTa,
    &QueryExecutor::ExecuteKeywordOnly};

/// The KspAlgorithm of each kAllAlgorithms entry, in the same order.
constexpr KspAlgorithm kAllAlgorithmIds[] = {
    KspAlgorithm::kBsp, KspAlgorithm::kSpp, KspAlgorithm::kSp,
    KspAlgorithm::kTa, KspAlgorithm::kKeywordOnly};

TEST(KspAlgorithmTest, Names) {
  EXPECT_STREQ(KspAlgorithmName(KspAlgorithm::kBsp), "BSP");
  EXPECT_STREQ(KspAlgorithmName(KspAlgorithm::kSpp), "SPP");
  EXPECT_STREQ(KspAlgorithmName(KspAlgorithm::kSp), "SP");
  EXPECT_STREQ(KspAlgorithmName(KspAlgorithm::kTa), "TA");
  EXPECT_STREQ(KspAlgorithmName(KspAlgorithm::kKeywordOnly), "KW");
}

TEST(ExecutorContractTest, UnpreparedDatabaseRejectedByEveryAlgorithm) {
  auto kb = BuildFigure1KnowledgeBase();
  ASSERT_TRUE(kb.ok());
  KspDatabase db(kb->get());  // No BuildRTree / PrepareAll.
  ASSERT_FALSE(db.has_rtree());
  QueryExecutor executor(&db);
  KspQuery query = db.MakeQuery(kQ1, {"roman"}, 1);
  for (ExecuteFn fn : kAllAlgorithms) {
    auto result = (executor.*fn)(query, nullptr);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsInvalidArgument());
  }
}

TEST(ExecutorContractTest, SameExecutorWorksOncePrepared) {
  auto kb = BuildFigure1KnowledgeBase();
  ASSERT_TRUE(kb.ok());
  KspDatabase db(kb->get());
  QueryExecutor executor(&db);
  KspQuery query = db.MakeQuery(kQ1, {"roman"}, 1);
  ASSERT_FALSE(executor.ExecuteBsp(query).ok());
  // Preparing the database unblocks executors constructed before it.
  db.PrepareAll(2);
  for (ExecuteFn fn : kAllAlgorithms) {
    auto result = (executor.*fn)(query, nullptr);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
}

TEST(ExecutorContractTest, TooManyDistinctKeywordsRejected) {
  auto kb = BuildFigure1KnowledgeBase();
  ASSERT_TRUE(kb.ok());
  KspDatabase db(kb->get());
  db.PrepareAll(2);
  QueryExecutor executor(&db);

  KspQuery query;
  query.location = kQ1;
  query.k = 1;
  for (TermId t = 0; t < 70; ++t) query.keywords.push_back(t % 5);
  // 70 keywords but only 5 distinct: fine everywhere.
  EXPECT_TRUE(executor.ExecuteSp(query).ok());
  EXPECT_TRUE(executor.ComputeTqspForPlace(0, query).ok());
  EXPECT_TRUE(executor.ComputeTqspAlternatives(0, query).ok());

  for (TermId t = 0; t < 70; ++t) query.keywords.push_back(t);
  for (ExecuteFn fn : kAllAlgorithms) {
    auto result = (executor.*fn)(query, nullptr);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsInvalidArgument());
  }
  // The direct TQSP entry points report the error instead of crashing.
  auto tree = executor.ComputeTqspForPlace(0, query);
  ASSERT_FALSE(tree.ok());
  EXPECT_TRUE(tree.status().IsInvalidArgument());
  auto tied = executor.ComputeTqspAlternatives(0, query);
  ASSERT_FALSE(tied.ok());
  EXPECT_TRUE(tied.status().IsInvalidArgument());

  // The rejections left no keyword bit behind: a valid query on the
  // same executor answers as a fresh executor does.
  const KspQuery valid = db.MakeQuery(kQ1, Figure1QueryKeywords(), 2);
  for (ExecuteFn fn : kAllAlgorithms) {
    QueryExecutor fresh(&db);
    auto want = (fresh.*fn)(valid, nullptr);
    auto got = (executor.*fn)(valid, nullptr);
    ASSERT_TRUE(want.ok() && got.ok());
    ASSERT_FALSE(want->entries.empty());
    ASSERT_EQ(got->entries.size(), want->entries.size());
    for (size_t i = 0; i < want->entries.size(); ++i) {
      EXPECT_EQ(got->entries[i].place, want->entries[i].place);
      EXPECT_EQ(got->entries[i].looseness, want->entries[i].looseness);
      EXPECT_EQ(got->entries[i].score, want->entries[i].score);
    }
  }
}

TEST(ExecutorContractTest, ExecuteDispatchesToEachAlgorithm) {
  auto kb = BuildFigure1KnowledgeBase();
  ASSERT_TRUE(kb.ok());
  KspDatabase db(kb->get());
  db.PrepareAll(2);
  QueryExecutor executor(&db);
  // At k = 1 the five runs differ: BSP probes no reachability, SPP
  // aborts p2 by Rule 2 at q1 (Example 8) where SP stops at p2's α
  // bound, and TA scores by L × S where keyword-only scores by L, so a
  // swapped case changes a score or a counter below.
  for (const Point& location : {kQ1, kQ2}) {
    const KspQuery query = db.MakeQuery(location, Figure1QueryKeywords(), 1);
    for (size_t a = 0; a < std::size(kAllAlgorithms); ++a) {
      SCOPED_TRACE(::testing::Message()
                   << KspAlgorithmName(kAllAlgorithmIds[a]) << " at ("
                   << location.x << ", " << location.y << ")");
      QueryStats want_stats;
      QueryStats got_stats;
      auto want = (executor.*kAllAlgorithms[a])(query, &want_stats);
      auto got = executor.Execute(kAllAlgorithmIds[a], query, &got_stats);
      ASSERT_TRUE(want.ok() && got.ok());
      ASSERT_EQ(want->entries.size(), 1u);
      ASSERT_EQ(got->entries.size(), 1u);
      EXPECT_EQ(got->entries[0].place, want->entries[0].place);
      EXPECT_EQ(got->entries[0].score, want->entries[0].score);
      EXPECT_EQ(got_stats.tqsp_computations, want_stats.tqsp_computations);
      EXPECT_EQ(got_stats.rtree_nodes_accessed,
                want_stats.rtree_nodes_accessed);
      EXPECT_EQ(got_stats.reachability_queries,
                want_stats.reachability_queries);
      EXPECT_EQ(got_stats.vertices_visited, want_stats.vertices_visited);
      EXPECT_EQ(got_stats.pruned_dynamic_bound,
                want_stats.pruned_dynamic_bound);
      EXPECT_EQ(got_stats.pruned_alpha_place, want_stats.pruned_alpha_place);
      EXPECT_EQ(got_stats.pruned_alpha_node, want_stats.pruned_alpha_node);
    }
  }
}

TEST(ExecutorContractTest, NonFiniteLocationRejectedByEveryAlgorithm) {
  // A NaN or infinite coordinate makes every spatial distance NaN or
  // infinite, so any answer ranked over it would be NaN or +inf scores
  // presented as OK.
  auto kb = BuildFigure1KnowledgeBase();
  ASSERT_TRUE(kb.ok());
  KspDatabase db(kb->get());
  db.PrepareAll(2);
  QueryExecutor executor(&db);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNan, kInf, -kInf}) {
    for (const bool on_x : {true, false}) {
      KspQuery query = db.MakeQuery(kQ1, Figure1QueryKeywords(), 2);
      (on_x ? query.location.x : query.location.y) = bad;
      for (const KspAlgorithm algorithm : kAllAlgorithmIds) {
        SCOPED_TRACE(::testing::Message()
                     << KspAlgorithmName(algorithm) << " "
                     << (on_x ? "x" : "y") << " = " << bad);
        auto result = executor.Execute(algorithm, query);
        ASSERT_FALSE(result.ok());
        EXPECT_TRUE(result.status().IsInvalidArgument())
            << result.status().ToString();
      }
      auto report = executor.Explain(query, KspAlgorithm::kSp);
      ASSERT_FALSE(report.ok());
      EXPECT_TRUE(report.status().IsInvalidArgument());
    }
  }
  // The rejections leave the executor usable.
  const KspQuery valid = db.MakeQuery(kQ1, Figure1QueryKeywords(), 2);
  for (const KspAlgorithm algorithm : kAllAlgorithmIds) {
    auto result = executor.Execute(algorithm, valid);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->entries.size(), 2u) << KspAlgorithmName(algorithm);
  }
}

TEST(ExecutorContractTest, SharedDatabaseExecutorsAnswerIdentically) {
  // Any number of executors over one prepared database answer alike —
  // the sharing contract that replaced the old clone-an-engine pattern.
  auto kb = BuildFigure1KnowledgeBase();
  ASSERT_TRUE(kb.ok());
  KspDatabase db(kb->get());
  db.PrepareAll(3);
  QueryExecutor first(&db);
  QueryExecutor second(&db);
  KspQuery query = db.MakeQuery(kQ1, Figure1QueryKeywords(), 2);
  auto a = first.ExecuteSp(query);
  auto b = second.ExecuteSp(query);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->entries.size(), 2u);
  ASSERT_EQ(b->entries.size(), a->entries.size());
  for (size_t i = 0; i < a->entries.size(); ++i) {
    EXPECT_EQ(b->entries[i].place, a->entries[i].place);
    EXPECT_DOUBLE_EQ(b->entries[i].score, a->entries[i].score);
    EXPECT_DOUBLE_EQ(b->entries[i].looseness, a->entries[i].looseness);
  }
}

class EpochWrapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto kb = GenerateKnowledgeBase(SyntheticProfile::DBpediaLike(1000));
    ASSERT_TRUE(kb.ok());
    kb_ = std::move(*kb);
    db_ = std::make_unique<KspDatabase>(kb_.get());
    db_->PrepareAll(2);
    QueryGenOptions qopt;
    qopt.num_keywords = 4;
    qopt.k = 5;
    qopt.seed = 9;
    queries_ = GenerateQueries(*kb_, QueryClass::kOriginal, qopt, 6);
    ASSERT_FALSE(queries_.empty());
  }

  std::unique_ptr<KnowledgeBase> kb_;
  std::unique_ptr<KspDatabase> db_;
  std::vector<KspQuery> queries_;
};

TEST_F(EpochWrapTest, ResultsUnchangedAcrossCounterWraparound) {
  // Reference: a fresh executor far away from the wrap.
  QueryExecutor reference(db_.get());
  // Victim: dirty its visit array with normal queries first so stale marks
  // exist, then park the epoch counter right below the 16-bit maximum. The
  // batch below crosses the wrap (each TQSP computation advances the
  // epoch); without the zero-fill on wrap, stale marks alias the restarted
  // epochs and corrupt BFS visitation.
  QueryExecutor victim(db_.get());
  for (const KspQuery& q : queries_) {
    ASSERT_TRUE(victim.ExecuteBsp(q).ok());
  }
  victim.set_bfs_epoch_for_testing(std::numeric_limits<uint16_t>::max() - 2);

  for (const KspQuery& q : queries_) {
    auto expected = reference.ExecuteBsp(q);
    auto got = victim.ExecuteBsp(q);
    ASSERT_TRUE(expected.ok() && got.ok());
    ASSERT_EQ(got->entries.size(), expected->entries.size());
    for (size_t i = 0; i < expected->entries.size(); ++i) {
      EXPECT_DOUBLE_EQ(got->entries[i].score, expected->entries[i].score);
      EXPECT_DOUBLE_EQ(got->entries[i].looseness,
                       expected->entries[i].looseness);
      EXPECT_EQ(got->entries[i].place, expected->entries[i].place);
    }
  }
}

TEST_F(EpochWrapTest, TqspIdenticalRightAtTheWrapBoundary) {
  QueryExecutor reference(db_.get());
  QueryExecutor victim(db_.get());
  const KspQuery& q = queries_.front();
  // Pin the counter so the very next BFS triggers the wrap.
  victim.set_bfs_epoch_for_testing(std::numeric_limits<uint16_t>::max());
  const uint32_t places = std::min<uint32_t>(kb_->num_places(), 50);
  for (PlaceId p = 0; p < places; ++p) {
    auto expected = reference.ComputeTqspForPlace(p, q);
    auto got = victim.ComputeTqspForPlace(p, q);
    ASSERT_TRUE(expected.ok() && got.ok());
    EXPECT_EQ(got->IsQualified(), expected->IsQualified()) << "place " << p;
    if (expected->IsQualified()) {
      EXPECT_DOUBLE_EQ(got->looseness, expected->looseness) << "place " << p;
    }
  }
}

}  // namespace
}  // namespace ksp
