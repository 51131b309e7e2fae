#include <gtest/gtest.h>

#include <memory>

#include "core/database.h"
#include "core/executor.h"
#include "datagen/fixtures.h"
#include "datagen/synthetic.h"

namespace ksp {
namespace {

using ExecuteFn = Result<KspResult> (QueryExecutor::*)(const KspQuery&,
                                                       QueryStats*);

constexpr ExecuteFn kCoreAlgorithms[] = {
    &QueryExecutor::ExecuteBsp, &QueryExecutor::ExecuteSpp,
    &QueryExecutor::ExecuteSp, &QueryExecutor::ExecuteTa};

std::unique_ptr<KnowledgeBase> SmallKb() {
  auto kb = BuildFigure1KnowledgeBase();
  EXPECT_TRUE(kb.ok());
  return std::move(*kb);
}

TEST(EngineEdgeCasesTest, EmptyKeywordListRanksByDistanceOnly) {
  auto kb = SmallKb();
  KspDatabase db(kb.get());
  db.PrepareAll(2);
  QueryExecutor executor(&db);
  KspQuery query;
  query.location = kQ2;  // Nearest place is p2.
  query.k = 2;
  for (ExecuteFn fn : kCoreAlgorithms) {
    auto result = (executor.*fn)(query, nullptr);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->entries.size(), 2u);
    // Every place qualifies with L = 1; ranking degenerates to distance.
    EXPECT_DOUBLE_EQ(result->entries[0].looseness, 1.0);
    EXPECT_LT(result->entries[0].spatial_distance,
              result->entries[1].spatial_distance);
  }
}

TEST(EngineEdgeCasesTest, KGreaterThanNumPlaces) {
  auto kb = SmallKb();
  KspDatabase db(kb.get());
  db.PrepareAll(2);
  QueryExecutor executor(&db);
  KspQuery query = db.MakeQuery(kQ1, {"roman"}, 50);
  auto result = executor.ExecuteSp(query);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->entries.size(), kb->num_places());
  EXPECT_FALSE(result->entries.empty());
}

TEST(EngineEdgeCasesTest, KZeroReturnsEmpty) {
  auto kb = SmallKb();
  KspDatabase db(kb.get());
  db.PrepareAll(2);
  QueryExecutor executor(&db);
  KspQuery query = db.MakeQuery(kQ1, {"roman"}, 0);
  for (ExecuteFn fn : kCoreAlgorithms) {
    auto result = (executor.*fn)(query, nullptr);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->entries.empty());
  }
}

TEST(EngineEdgeCasesTest, DuplicateKeywordsCollapse) {
  auto kb = SmallKb();
  KspDatabase db(kb.get());
  db.PrepareAll(2);
  QueryExecutor executor(&db);
  KspQuery once = db.MakeQuery(kQ1, {"roman"}, 2);
  KspQuery thrice = db.MakeQuery(kQ1, {"roman", "roman", "roman"}, 2);
  auto a = executor.ExecuteSp(once);
  auto b = executor.ExecuteSp(thrice);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->entries.size(), b->entries.size());
  for (size_t i = 0; i < a->entries.size(); ++i) {
    EXPECT_DOUBLE_EQ(a->entries[i].score, b->entries[i].score);
  }
}

TEST(EngineEdgeCasesTest, TooManyKeywordsRejected) {
  auto kb = SmallKb();
  KspDatabase db(kb.get());
  db.PrepareAll(2);
  QueryExecutor executor(&db);
  KspQuery query;
  query.location = kQ1;
  query.k = 1;
  for (TermId t = 0; t < 70; ++t) query.keywords.push_back(t % 5);
  // 5 distinct keywords: fine.
  EXPECT_TRUE(executor.ExecuteSp(query).ok());
  for (TermId t = 0; t < 70; ++t) query.keywords.push_back(t);
  auto result = executor.ExecuteSp(query);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(EngineEdgeCasesTest, SppWithoutReachabilityIndexFails) {
  auto kb = SmallKb();
  KspDatabase db(kb.get());
  db.BuildRTree();
  QueryExecutor executor(&db);
  KspQuery query = db.MakeQuery(kQ1, {"roman"}, 1);
  auto result = executor.ExecuteSpp(query);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(EngineEdgeCasesTest, SpWithoutAlphaIndexFails) {
  auto kb = SmallKb();
  KspDatabase db(kb.get());
  db.BuildRTree();
  db.BuildReachabilityIndex();
  QueryExecutor executor(&db);
  KspQuery query = db.MakeQuery(kQ1, {"roman"}, 1);
  auto result = executor.ExecuteSp(query);
  EXPECT_FALSE(result.ok());
}

TEST(EngineEdgeCasesTest, PruningDisabledStillCorrect) {
  auto kb = SmallKb();
  KspOptions options;
  options.use_unqualified_pruning = false;
  options.use_dynamic_bound_pruning = false;
  KspDatabase db(kb.get(), options);
  db.BuildRTree();
  QueryExecutor executor(&db);
  KspQuery query = db.MakeQuery(kQ1, Figure1QueryKeywords(), 2);
  auto result = executor.ExecuteSpp(query);  // No reach index needed now.
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->entries.size(), 2u);
  EXPECT_NEAR(result->entries[0].score, 1.32, 0.01);
}

TEST(EngineEdgeCasesTest, AlphaPruningDisabledFallsBackToSpp) {
  auto kb = SmallKb();
  KspOptions options;
  options.use_alpha_pruning = false;
  KspDatabase db(kb.get(), options);
  db.BuildRTree();
  db.BuildReachabilityIndex();
  QueryExecutor executor(&db);
  KspQuery query = db.MakeQuery(kQ1, Figure1QueryKeywords(), 1);
  auto result = executor.ExecuteSp(query);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->entries.size(), 1u);
}

TEST(EngineEdgeCasesTest, KbWithNoPlaces) {
  KnowledgeBaseBuilder builder;
  VertexId a = builder.AddEntity("http://x.org/Lonely_Node");
  VertexId b = builder.AddEntity("http://x.org/Friend");
  builder.AddRelation(a, b, "http://x.org/knows");
  auto kb = builder.Finish();
  ASSERT_TRUE(kb.ok());
  KspDatabase db(kb->get());
  db.PrepareAll(2);
  QueryExecutor executor(&db);
  KspQuery query = db.MakeQuery(Point{0, 0}, {"friend"}, 3);
  for (ExecuteFn fn : kCoreAlgorithms) {
    auto result = (executor.*fn)(query, nullptr);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->entries.empty());
  }
}

TEST(EngineEdgeCasesTest, TimeLimitMarksIncomplete) {
  auto profile = SyntheticProfile::DBpediaLike(3000);
  auto kb = GenerateKnowledgeBase(profile);
  ASSERT_TRUE(kb.ok());
  KspOptions options;
  options.time_limit_ms = 0.0;  // Everything times out instantly.
  KspDatabase db(kb->get(), options);
  db.BuildRTree();
  QueryExecutor executor(&db);
  KspQuery query;
  query.location = Point{45, 10};
  query.keywords = {0, 1};
  query.k = 5;
  QueryStats stats;
  auto result = executor.ExecuteBsp(query, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(stats.completed);
}

TEST(EngineEdgeCasesTest, StatsAccumulate) {
  QueryStats a;
  a.total_ms = 5;
  a.semantic_ms = 2;
  a.tqsp_computations = 3;
  QueryStats b;
  b.total_ms = 7;
  b.semantic_ms = 1;
  b.tqsp_computations = 4;
  b.completed = false;
  a.Accumulate(b);
  EXPECT_DOUBLE_EQ(a.total_ms, 12.0);
  EXPECT_DOUBLE_EQ(a.other_ms(), 9.0);
  EXPECT_EQ(a.tqsp_computations, 7u);
  EXPECT_FALSE(a.completed);
}

}  // namespace
}  // namespace ksp
