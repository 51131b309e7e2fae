// Focused tests for the four pruning rules and the termination logic:
// monotone bound behaviour, pruning-counter plausibility, and the
// work-reduction guarantees across k/|q.ψ| sweeps.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <string_view>

#include "core/database.h"
#include "core/executor.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"
#include "rdf/knowledge_base.h"

namespace ksp {
namespace {

class PruningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto kb = GenerateKnowledgeBase(SyntheticProfile::DBpediaLike(2500));
    ASSERT_TRUE(kb.ok());
    kb_ = std::move(*kb);
    db_ = std::make_unique<KspDatabase>(kb_.get());
    db_->PrepareAll(3);
    exec_ = std::make_unique<QueryExecutor>(db_.get());
    QueryGenOptions qopt;
    qopt.num_keywords = 5;
    qopt.k = 5;
    qopt.seed = 31;
    queries_ = GenerateQueries(*kb_, QueryClass::kOriginal, qopt, 8);
    ASSERT_FALSE(queries_.empty());
  }

  std::unique_ptr<KnowledgeBase> kb_;
  std::unique_ptr<KspDatabase> db_;
  std::unique_ptr<QueryExecutor> exec_;
  std::vector<KspQuery> queries_;
};

TEST_F(PruningTest, SpDoesStrictlyLessWorkThanSpp) {
  uint64_t spp_tqsp = 0;
  uint64_t sp_tqsp = 0;
  uint64_t spp_nodes = 0;
  uint64_t sp_nodes = 0;
  for (const auto& q : queries_) {
    QueryStats spp_stats;
    QueryStats sp_stats;
    ASSERT_TRUE(exec_->ExecuteSpp(q, &spp_stats).ok());
    ASSERT_TRUE(exec_->ExecuteSp(q, &sp_stats).ok());
    spp_tqsp += spp_stats.tqsp_computations;
    sp_tqsp += sp_stats.tqsp_computations;
    spp_nodes += spp_stats.rtree_nodes_accessed;
    sp_nodes += sp_stats.rtree_nodes_accessed;
  }
  EXPECT_LT(sp_tqsp, spp_tqsp);
  EXPECT_LE(sp_nodes, spp_nodes);
}

TEST_F(PruningTest, DynamicBoundReducesVisitedVertices) {
  // SPP visits strictly fewer BFS vertices than BSP whenever Rule 2 fires.
  uint64_t bsp_visits = 0;
  uint64_t spp_visits = 0;
  uint64_t fired = 0;
  for (const auto& q : queries_) {
    QueryStats bsp_stats;
    QueryStats spp_stats;
    ASSERT_TRUE(exec_->ExecuteBsp(q, &bsp_stats).ok());
    ASSERT_TRUE(exec_->ExecuteSpp(q, &spp_stats).ok());
    if (!bsp_stats.completed) continue;  // Timed-out runs not comparable.
    bsp_visits += bsp_stats.vertices_visited;
    spp_visits += spp_stats.vertices_visited;
    fired += spp_stats.pruned_dynamic_bound;
  }
  if (fired > 0) {
    EXPECT_LT(spp_visits, bsp_visits);
  }
}

TEST_F(PruningTest, ReachabilityQueriesBoundedByKeywordsPerPlace) {
  for (const auto& q : queries_) {
    QueryStats stats;
    ASSERT_TRUE(exec_->ExecuteSpp(q, &stats).ok());
    // Per candidate place, at most |q.ψ| reachability queries are issued.
    uint64_t candidates = stats.tqsp_computations + stats.pruned_unqualified;
    EXPECT_LE(stats.reachability_queries, candidates * q.keywords.size());
  }
}

TEST_F(PruningTest, BspNeverReportsPruning) {
  for (const auto& q : queries_) {
    QueryStats stats;
    ASSERT_TRUE(exec_->ExecuteBsp(q, &stats).ok());
    EXPECT_EQ(stats.pruned_unqualified, 0u);
    EXPECT_EQ(stats.pruned_dynamic_bound, 0u);
    EXPECT_EQ(stats.pruned_alpha_place, 0u);
    EXPECT_EQ(stats.pruned_alpha_node, 0u);
    EXPECT_EQ(stats.reachability_queries, 0u);
  }
}

TEST_F(PruningTest, WorkGrowsWithK) {
  // More requested results -> monotonically more TQSP computations for SP
  // (within noise; we check the endpoints).
  const KspQuery& base = queries_.front();
  KspQuery q1 = base;
  q1.k = 1;
  KspQuery q20 = base;
  q20.k = 20;
  QueryStats s1;
  QueryStats s20;
  ASSERT_TRUE(exec_->ExecuteSp(q1, &s1).ok());
  ASSERT_TRUE(exec_->ExecuteSp(q20, &s20).ok());
  EXPECT_LE(s1.tqsp_computations, s20.tqsp_computations);
  EXPECT_LE(s1.rtree_nodes_accessed, s20.rtree_nodes_accessed);
}

TEST_F(PruningTest, SemanticTimeWithinTotal) {
  for (const auto& q : queries_) {
    for (auto exec : {&QueryExecutor::ExecuteBsp, &QueryExecutor::ExecuteSpp,
                      &QueryExecutor::ExecuteSp, &QueryExecutor::ExecuteTa}) {
      QueryStats stats;
      ASSERT_TRUE(((*exec_).*exec)(q, &stats).ok());
      EXPECT_GE(stats.total_ms, 0.0);
      EXPECT_GE(stats.semantic_ms, 0.0);
      EXPECT_LE(stats.semantic_ms, stats.total_ms + 0.5);
    }
  }
}

TEST_F(PruningTest, AlphaCountersOnlyFromSp) {
  for (const auto& q : queries_) {
    QueryStats spp_stats;
    QueryStats sp_stats;
    ASSERT_TRUE(exec_->ExecuteSpp(q, &spp_stats).ok());
    ASSERT_TRUE(exec_->ExecuteSp(q, &sp_stats).ok());
    EXPECT_EQ(spp_stats.pruned_alpha_place, 0u);
    EXPECT_EQ(spp_stats.pruned_alpha_node, 0u);
  }
}

TEST_F(PruningTest, LargerAlphaNeverIncreasesTqspCount) {
  // Tighter bounds with larger α can only prune more (same ordering
  // heuristics, same data).
  KspDatabase db1(kb_.get());
  db1.PrepareAll(1);
  QueryExecutor exec1(&db1);
  KspDatabase db3(kb_.get());
  db3.PrepareAll(3);
  QueryExecutor exec3(&db3);
  uint64_t tqsp1 = 0;
  uint64_t tqsp3 = 0;
  for (const auto& q : queries_) {
    QueryStats s1;
    QueryStats s3;
    ASSERT_TRUE(exec1.ExecuteSp(q, &s1).ok());
    ASSERT_TRUE(exec3.ExecuteSp(q, &s3).ok());
    tqsp1 += s1.tqsp_computations;
    tqsp3 += s3.tqsp_computations;
    // Identical answers regardless of α.
    auto r1 = exec1.ExecuteSp(q);
    auto r3 = exec3.ExecuteSp(q);
    ASSERT_TRUE(r1.ok() && r3.ok());
    ASSERT_EQ(r1->entries.size(), r3->entries.size());
    for (size_t i = 0; i < r1->entries.size(); ++i) {
      EXPECT_DOUBLE_EQ(r1->entries[i].score, r3->entries[i].score);
    }
  }
  EXPECT_LE(tqsp3, tqsp1);
}

// SP's Rule 1 under a finite θ. At α = 1 a keyword three hops away
// gets the bound distance α + 1 = 2, so the near place's α bound
// (L_B = 3, f_B = 3) underestimates its score (L = 4, f = 4). It pops
// first and fills the k = 1 heap at θ = 4. The far place cannot reach
// the keyword at all, yet its bound f_B = 3 × 1.2 = 3.6 is below θ, so
// it is popped too, and Rule 1 must discard it without a TQSP.
TEST(SpRuleOneTest, PrunesUnderFiniteTheta) {
  KnowledgeBaseBuilder builder;
  auto entity = [&](std::string_view local) {
    return builder.AddEntity("http://example.org/" + std::string(local));
  };
  const std::string link = "http://example.org/link";
  const VertexId near = entity("Near");
  const VertexId alpha = entity("Alpha");
  const VertexId bravo = entity("Bravo");
  const VertexId zebra = entity("Zebra");
  builder.AddRelation(near, alpha, link);
  builder.AddRelation(alpha, bravo, link);
  builder.AddRelation(bravo, zebra, link);
  const VertexId far = entity("Far");
  builder.AddRelation(far, entity("Delta"), link);
  builder.SetLocation(near, Point{1.0, 0.0});
  builder.SetLocation(far, Point{0.0, 1.2});
  auto kb = builder.Finish();
  ASSERT_TRUE(kb.ok()) << kb.status().ToString();
  KspDatabase db(kb->get());
  db.PrepareAll(/*alpha=*/1);
  QueryExecutor executor(&db);
  const KspQuery query = db.MakeQuery(Point{0.0, 0.0}, {"zebra"}, 1);
  const PlaceId near_place = (*kb)->place_of(near);
  const PlaceId far_place = (*kb)->place_of(far);

  QueryStats stats;
  auto result = executor.ExecuteSp(query, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->entries.size(), 1u);
  EXPECT_EQ(result->entries[0].place, near_place);
  EXPECT_EQ(result->entries[0].looseness, 4.0);
  EXPECT_EQ(stats.pruned_unqualified, 1u);
  EXPECT_EQ(stats.tqsp_computations, 1u);

  auto report = executor.Explain(query, KspAlgorithm::kSp);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const QueryStats& st = report->stats;
  constexpr size_t kOutcomes = 7;  // CandidateOutcome values.
  uint64_t rows[kOutcomes] = {};
  const ExplainCandidate* rule1_row = nullptr;
  for (const ExplainCandidate& c : report->candidates) {
    ++rows[static_cast<size_t>(c.outcome)];
    if (c.outcome == CandidateOutcome::kPrunedRule1) rule1_row = &c;
  }
  ASSERT_NE(rule1_row, nullptr);
  EXPECT_EQ(rule1_row->place, far_place);
  EXPECT_TRUE(std::isfinite(rule1_row->threshold));
  EXPECT_EQ(rule1_row->threshold, 4.0);
  EXPECT_LT(rule1_row->score_bound, rule1_row->threshold);

  // The ExplainRowsMatchCounters identities.
  auto count = [&](CandidateOutcome outcome) {
    return rows[static_cast<size_t>(outcome)];
  };
  EXPECT_EQ(count(CandidateOutcome::kPrunedRule1), st.pruned_unqualified);
  EXPECT_EQ(count(CandidateOutcome::kPrunedRule2), st.pruned_dynamic_bound);
  EXPECT_EQ(count(CandidateOutcome::kPrunedRule3), st.pruned_alpha_place);
  EXPECT_EQ(count(CandidateOutcome::kPrunedRule4), st.pruned_alpha_node);
  EXPECT_EQ(count(CandidateOutcome::kComputed) +
                count(CandidateOutcome::kInTopK) +
                count(CandidateOutcome::kUnqualified) +
                count(CandidateOutcome::kPrunedRule2),
            st.tqsp_computations);
  EXPECT_EQ(count(CandidateOutcome::kInTopK), report->result.entries.size());
  EXPECT_EQ(st.pruned_unqualified, stats.pruned_unqualified);
  EXPECT_EQ(st.tqsp_computations, stats.tqsp_computations);
}

}  // namespace
}  // namespace ksp
