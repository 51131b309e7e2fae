// Validates the query engine against the paper's worked examples
// (Figures 1-2, Table 2, Examples 4-8): exact looseness values, exact
// ranking scores, identical answers from BSP, SPP, SP and TA, and the
// documented behaviour of the pruning rules on this instance.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/database.h"
#include "core/executor.h"
#include "datagen/fixtures.h"

namespace ksp {
namespace {

class Figure1Test : public ::testing::Test {
 protected:
  void SetUp() override {
    auto kb = BuildFigure1KnowledgeBase();
    ASSERT_TRUE(kb.ok()) << kb.status().ToString();
    kb_ = std::move(kb).value();
    db_ = std::make_unique<KspDatabase>(kb_.get());
    db_->PrepareAll(/*alpha=*/3);
    exec_ = std::make_unique<QueryExecutor>(db_.get());
  }

  VertexId Vertex(std::string_view local) {
    auto v = kb_->FindVertex("http://example.org/" + std::string(local));
    EXPECT_TRUE(v.has_value()) << local;
    return *v;
  }

  PlaceId PlaceOf(std::string_view local) {
    return kb_->place_of(Vertex(local));
  }

  SemanticPlaceTree Tqsp(PlaceId place, const KspQuery& query) {
    auto tree = exec_->ComputeTqspForPlace(place, query);
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
    return tree.ok() ? std::move(*tree) : SemanticPlaceTree{};
  }

  std::unique_ptr<KnowledgeBase> kb_;
  std::unique_ptr<KspDatabase> db_;
  std::unique_ptr<QueryExecutor> exec_;
};

TEST_F(Figure1Test, DatasetShape) {
  EXPECT_EQ(kb_->num_vertices(), 10u);
  EXPECT_EQ(kb_->num_edges(), 8u);
  EXPECT_EQ(kb_->num_places(), 2u);
}

TEST_F(Figure1Test, Table2KeywordCoverage) {
  // M_q.ψ of Table 2: which vertices cover which of
  // {ancient, roman, catholic, history}.
  auto terms = kb_->LookupTerms(Figure1QueryKeywords());
  ASSERT_EQ(terms.size(), 4u);
  const TermId ancient = terms[0];
  const TermId roman = terms[1];
  const TermId catholic = terms[2];
  const TermId history = terms[3];
  const DocumentStore& docs = kb_->documents();

  auto covers = [&](std::string_view local, TermId t) {
    return docs.Contains(Vertex(local), t);
  };

  EXPECT_TRUE(covers("Saint_Peter", catholic));
  EXPECT_TRUE(covers("Saint_Peter", roman));
  EXPECT_FALSE(covers("Saint_Peter", ancient));
  EXPECT_FALSE(covers("Saint_Peter", history));

  EXPECT_TRUE(covers("Ancient_Diocese_of_Arles", ancient));
  EXPECT_TRUE(covers("Architectural_history", history));

  EXPECT_TRUE(covers("Roman_Empire", ancient));
  EXPECT_TRUE(covers("Roman_Empire", roman));

  EXPECT_TRUE(covers("Catholic_Church", catholic));
  EXPECT_TRUE(covers("Catholic_Church", history));

  EXPECT_TRUE(covers("Anatolia", ancient));
  EXPECT_TRUE(covers("Anatolia", history));

  EXPECT_TRUE(
      covers("Roman_Catholic_Diocese_of_Frejus_Toulon", catholic));
  EXPECT_TRUE(covers("Roman_Catholic_Diocese_of_Frejus_Toulon", roman));

  // Montmajour Abbey itself covers none of the query keywords.
  for (TermId t : terms) {
    EXPECT_FALSE(covers("Montmajour_Abbey", t));
  }
}

TEST_F(Figure1Test, Example4Looseness) {
  KspQuery query = db_->MakeQuery(kQ1, Figure1QueryKeywords(), 1);

  SemanticPlaceTree t1 = Tqsp(PlaceOf("Montmajour_Abbey"), query);
  EXPECT_DOUBLE_EQ(t1.looseness, 6.0);  // 1 + 1 + 1 + 1 + 2.

  SemanticPlaceTree t2 =
      Tqsp(PlaceOf("Roman_Catholic_Diocese_of_Frejus_Toulon"), query);
  EXPECT_DOUBLE_EQ(t2.looseness, 4.0);  // 1 + 0 + 0 + 1 + 2.

  // The TQSP at p2 matches ⟨p2, (v6, v7, v8)⟩: ancient at distance 2 via
  // Mary_Magdalene -> Anatolia, history at 1 via Catholic_Church.
  for (const auto& match : t2.matches) {
    if (match.term == kb_->LookupTerms({"ancient"})[0]) {
      EXPECT_EQ(match.vertex, Vertex("Anatolia"));
      EXPECT_EQ(match.distance, 2u);
      ASSERT_EQ(match.path.size(), 3u);
      EXPECT_EQ(match.path[1], Vertex("Mary_Magdalene"));
    }
    if (match.term == kb_->LookupTerms({"history"})[0]) {
      EXPECT_EQ(match.vertex, Vertex("Catholic_Church"));
      EXPECT_EQ(match.distance, 1u);
    }
  }
}

TEST_F(Figure1Test, TqspTreeVertexSetsMatchPaperNotation) {
  // Example 4's trees: ⟨p1, (v1, v2, v3, v4)⟩ and ⟨p2, (v6, v7, v8)⟩.
  KspQuery query = db_->MakeQuery(kQ1, Figure1QueryKeywords(), 1);

  SemanticPlaceTree t1 = Tqsp(PlaceOf("Montmajour_Abbey"), query);
  std::vector<VertexId> expected1 = {
      Vertex("Montmajour_Abbey"), Vertex("Romanesque_architecture"),
      Vertex("Saint_Peter"), Vertex("Ancient_Diocese_of_Arles"),
      Vertex("Architectural_history")};
  std::sort(expected1.begin(), expected1.end());
  EXPECT_EQ(t1.TreeVertices(), expected1);

  SemanticPlaceTree t2 =
      Tqsp(PlaceOf("Roman_Catholic_Diocese_of_Frejus_Toulon"), query);
  std::vector<VertexId> expected2 = {
      Vertex("Roman_Catholic_Diocese_of_Frejus_Toulon"),
      Vertex("Mary_Magdalene"), Vertex("Catholic_Church"),
      Vertex("Anatolia")};
  std::sort(expected2.begin(), expected2.end());
  EXPECT_EQ(t2.TreeVertices(), expected2);
}

TEST_F(Figure1Test, Example5ScoresAtQ1) {
  KspQuery query = db_->MakeQuery(kQ1, Figure1QueryKeywords(), 2);
  auto result = exec_->ExecuteBsp(query);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->entries.size(), 2u);

  // Top-1 at q1 is Montmajour Abbey with f = 6 × 0.22 ≈ 1.32.
  EXPECT_EQ(result->entries[0].place, PlaceOf("Montmajour_Abbey"));
  EXPECT_NEAR(result->entries[0].spatial_distance, 0.22, 0.005);
  EXPECT_DOUBLE_EQ(result->entries[0].looseness, 6.0);
  EXPECT_NEAR(result->entries[0].score, 1.32, 0.01);

  EXPECT_EQ(result->entries[1].place,
            PlaceOf("Roman_Catholic_Diocese_of_Frejus_Toulon"));
  EXPECT_NEAR(result->entries[1].spatial_distance, 1.28, 0.005);
  EXPECT_DOUBLE_EQ(result->entries[1].looseness, 4.0);
  EXPECT_NEAR(result->entries[1].score, 5.12, 0.02);
}

TEST_F(Figure1Test, Example5ScoresAtQ2) {
  KspQuery query = db_->MakeQuery(kQ2, Figure1QueryKeywords(), 2);
  auto result = exec_->ExecuteBsp(query);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->entries.size(), 2u);

  // At q2 the diocese wins with f = 4 × 0.08 ≈ 0.32.
  EXPECT_EQ(result->entries[0].place,
            PlaceOf("Roman_Catholic_Diocese_of_Frejus_Toulon"));
  EXPECT_NEAR(result->entries[0].score, 0.33, 0.02);
  EXPECT_EQ(result->entries[1].place, PlaceOf("Montmajour_Abbey"));
  EXPECT_NEAR(result->entries[1].score, 8.10, 0.05);
}

TEST_F(Figure1Test, AllAlgorithmsAgree) {
  for (const Point& q : {kQ1, kQ2}) {
    for (uint32_t k : {1u, 2u, 5u}) {
      KspQuery query = db_->MakeQuery(q, Figure1QueryKeywords(), k);
      auto bsp = exec_->ExecuteBsp(query);
      auto spp = exec_->ExecuteSpp(query);
      auto sp = exec_->ExecuteSp(query);
      auto ta = exec_->ExecuteTa(query);
      ASSERT_TRUE(bsp.ok() && spp.ok() && sp.ok() && ta.ok());
      ASSERT_EQ(bsp->entries.size(), spp->entries.size());
      ASSERT_EQ(bsp->entries.size(), sp->entries.size());
      ASSERT_EQ(bsp->entries.size(), ta->entries.size());
      for (size_t i = 0; i < bsp->entries.size(); ++i) {
        EXPECT_DOUBLE_EQ(bsp->entries[i].score, spp->entries[i].score);
        EXPECT_DOUBLE_EQ(bsp->entries[i].score, sp->entries[i].score);
        EXPECT_DOUBLE_EQ(bsp->entries[i].score, ta->entries[i].score);
        EXPECT_EQ(bsp->entries[i].place, spp->entries[i].place);
        EXPECT_EQ(bsp->entries[i].place, sp->entries[i].place);
        EXPECT_EQ(bsp->entries[i].place, ta->entries[i].place);
      }
    }
  }
}

TEST_F(Figure1Test, Example8DynamicBoundPrunesSecondPlace) {
  // With k = 1 at q1, SPP finds p1 (θ = 1.32) and then aborts p2's TQSP:
  // Lw(T_p2) = 1.32 / 1.28 ≈ 1.03 and the bound reaches 3 > 1.03 after
  // Mary_Magdalene is visited.
  KspQuery query = db_->MakeQuery(kQ1, Figure1QueryKeywords(), 1);
  QueryStats stats;
  auto result = exec_->ExecuteSpp(query, &stats);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->entries.size(), 1u);
  EXPECT_EQ(result->entries[0].place, PlaceOf("Montmajour_Abbey"));
  EXPECT_EQ(stats.pruned_dynamic_bound, 1u);
}

TEST_F(Figure1Test, PruningRule1DiscardsUnreachableKeywordPlaces) {
  // {church, architecture}: p2 never reaches "architecture" (§4.1's
  // example) and p1 never reaches "church", so Pruning Rule 1 discards
  // both places and no TQSP is ever constructed.
  KspQuery query = db_->MakeQuery(kQ2, {"church", "architecture"}, 2);
  QueryStats stats;
  auto result = exec_->ExecuteSpp(query, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->entries.empty());
  EXPECT_EQ(stats.pruned_unqualified, 2u);
  EXPECT_EQ(stats.tqsp_computations, 0u);

  // SP on the same query: with k = 2 the heap never fills, so θ stays
  // +inf, Rules 3 and 4 cannot prune, and both places reach the per-place
  // step, where Rule 1 discards them.
  QueryStats sp_stats;
  auto sp_result = exec_->ExecuteSp(query, &sp_stats);
  ASSERT_TRUE(sp_result.ok());
  EXPECT_TRUE(sp_result->entries.empty());
  EXPECT_EQ(sp_stats.pruned_unqualified, 2u);
  EXPECT_EQ(sp_stats.tqsp_computations, 0u);
  auto report = exec_->Explain(query, KspAlgorithm::kSp);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(std::count_if(report->candidates.begin(),
                          report->candidates.end(),
                          [](const ExplainCandidate& row) {
                            return row.outcome ==
                                   CandidateOutcome::kPrunedRule1;
                          }),
            2);

  // {church, ancient}: both reachable from p2 only.
  KspQuery q2 = db_->MakeQuery(kQ2, {"church", "ancient"}, 2);
  QueryStats stats2;
  auto result2 = exec_->ExecuteSpp(q2, &stats2);
  ASSERT_TRUE(result2.ok());
  ASSERT_EQ(result2->entries.size(), 1u);
  EXPECT_EQ(result2->entries[0].place,
            PlaceOf("Roman_Catholic_Diocese_of_Frejus_Toulon"));
  EXPECT_GE(stats2.pruned_unqualified, 1u);
}

TEST_F(Figure1Test, UnknownKeywordYieldsEmptyResult) {
  KspQuery query = db_->MakeQuery(kQ1, {"zeppelin"}, 3);
  for (auto exec : {&QueryExecutor::ExecuteBsp, &QueryExecutor::ExecuteSpp,
                    &QueryExecutor::ExecuteSp, &QueryExecutor::ExecuteTa}) {
    auto result = (exec_.get()->*exec)(query, nullptr);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->entries.empty());
  }
}

TEST_F(Figure1Test, NTriplesFixtureGivesSameAnswers) {
  auto kb2 = LoadKnowledgeBaseFromString(MontmajourNTriples());
  ASSERT_TRUE(kb2.ok()) << kb2.status().ToString();
  KspDatabase db2(kb2->get());
  db2.PrepareAll(3);
  QueryExecutor exec2(&db2);
  KspQuery query = db2.MakeQuery(kQ1, Figure1QueryKeywords(), 2);
  auto result = exec2.ExecuteSp(query);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->entries.size(), 2u);
  EXPECT_DOUBLE_EQ(result->entries[0].looseness, 6.0);
  EXPECT_NEAR(result->entries[0].score, 1.32, 0.01);
  EXPECT_DOUBLE_EQ(result->entries[1].looseness, 4.0);
}

}  // namespace
}  // namespace ksp
