// Cross-algorithm QueryExecutor correctness: on random synthetic KBs and
// random queries, BSP, SPP, SP and TA must return exactly the scores of
// a brute-force oracle that evaluates every place. Pruning may only
// reduce work, never change answers. Parameterized over dataset profile,
// |q.ψ|, k and α. (The sharded executor's equivalence claim lives in
// shard_equivalence_test.cc.)

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>

#include "core/database.h"
#include "core/executor.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"

namespace ksp {
namespace {

/// Brute force: score all places, take the best k by (score, place).
std::vector<std::pair<double, PlaceId>> BruteForceTopK(
    QueryExecutor* executor, const KspQuery& q) {
  const KspDatabase& db = executor->db();
  const KnowledgeBase& kb = db.kb();
  std::vector<std::pair<double, PlaceId>> scored;
  for (PlaceId p = 0; p < kb.num_places(); ++p) {
    auto tree = executor->ComputeTqspForPlace(p, q);
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
    if (!tree.ok() || !tree->IsQualified()) continue;
    double s = Distance(q.location, kb.place_location(p));
    scored.emplace_back(db.options().ranking.Score(tree->looseness, s), p);
  }
  std::sort(scored.begin(), scored.end());
  if (scored.size() > q.k) scored.resize(q.k);
  return scored;
}

void ExpectMatchesOracle(
    const KspResult& result,
    const std::vector<std::pair<double, PlaceId>>& oracle) {
  ASSERT_EQ(result.entries.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_NEAR(result.entries[i].score, oracle[i].first, 1e-9) << i;
    EXPECT_EQ(result.entries[i].place, oracle[i].second) << i;
    // Entry internals must be consistent.
    EXPECT_NEAR(result.entries[i].score,
                result.entries[i].looseness *
                    result.entries[i].spatial_distance,
                1e-9);
  }
}

// gtest has no printer for Config, so it names each Sweeps case after
// the raw bytes of its parameter. Those bytes used to include three
// uninitialised padding bytes after `dbpedia_like`, which made the case
// names differ from build to build and even from run to run. The padding
// is now an explicit field holding the bytes the cases were registered
// under, so every case keeps one fixed name. The field is not read.
struct Config {
  bool dbpedia_like;
  uint8_t name_bytes[3];
  uint32_t num_keywords;
  uint32_t k;
  uint32_t alpha;
};
static_assert(sizeof(Config) == 16, "case names print all 16 bytes");

class EquivalenceTest : public ::testing::TestWithParam<Config> {};

TEST_P(EquivalenceTest, AllAlgorithmsMatchBruteForce) {
  const Config config = GetParam();
  auto profile = config.dbpedia_like ? SyntheticProfile::DBpediaLike(1200)
                                     : SyntheticProfile::YagoLike(1200);
  profile.seed += config.num_keywords * 17 + config.k;
  auto kb = GenerateKnowledgeBase(profile);
  ASSERT_TRUE(kb.ok());
  KspDatabase db(kb->get());
  db.PrepareAll(config.alpha);
  QueryExecutor executor(&db);

  QueryGenOptions qopt;
  qopt.num_keywords = config.num_keywords;
  qopt.k = config.k;
  qopt.seed = 1000 + config.alpha;
  auto queries =
      GenerateQueries(**kb, QueryClass::kOriginal, qopt, /*count=*/5);
  ASSERT_FALSE(queries.empty());

  for (const KspQuery& q : queries) {
    auto oracle = BruteForceTopK(&executor, q);
    QueryStats bsp_stats;
    QueryStats spp_stats;
    QueryStats sp_stats;
    QueryStats ta_stats;
    auto bsp = executor.ExecuteBsp(q, &bsp_stats);
    auto spp = executor.ExecuteSpp(q, &spp_stats);
    auto sp = executor.ExecuteSp(q, &sp_stats);
    auto ta = executor.ExecuteTa(q, &ta_stats);
    ASSERT_TRUE(bsp.ok()) << bsp.status().ToString();
    ASSERT_TRUE(spp.ok()) << spp.status().ToString();
    ASSERT_TRUE(sp.ok()) << sp.status().ToString();
    ASSERT_TRUE(ta.ok()) << ta.status().ToString();

    ExpectMatchesOracle(*bsp, oracle);
    ExpectMatchesOracle(*spp, oracle);
    ExpectMatchesOracle(*sp, oracle);
    // TA entries: scores must match; trees are materialized post-hoc.
    ASSERT_EQ(ta->entries.size(), oracle.size());
    for (size_t i = 0; i < oracle.size(); ++i) {
      EXPECT_NEAR(ta->entries[i].score, oracle[i].first, 1e-9);
      EXPECT_EQ(ta->entries[i].place, oracle[i].second);
    }

    // Pruning only reduces work.
    EXPECT_LE(spp_stats.tqsp_computations, bsp_stats.tqsp_computations);
    EXPECT_LE(sp_stats.rtree_nodes_accessed, bsp_stats.rtree_nodes_accessed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, EquivalenceTest,
    ::testing::Values(Config{true, {0xFF, 0x48, 0x00}, 3, 5, 2},
                      Config{true, {0x00, 0x00, 0x00}, 5, 1, 3},
                      Config{true, {0x00, 0x00, 0x00}, 1, 10, 1},
                      Config{false, {0x00, 0x01, 0x1B}, 3, 5, 2},
                      Config{false, {0xDA, 0x48, 0x00}, 5, 3, 3},
                      Config{false, {0x00, 0x00, 0x00}, 8, 2, 2}));

TEST(EquivalenceWeightedSumTest, AlgorithmsAgreeUnderEquation1) {
  auto profile = SyntheticProfile::DBpediaLike(800);
  auto kb = GenerateKnowledgeBase(profile);
  ASSERT_TRUE(kb.ok());
  KspOptions options;
  options.ranking = RankingFunction::WeightedSum(0.6);
  KspDatabase db(kb->get(), options);
  db.PrepareAll(2);
  QueryExecutor executor(&db);

  QueryGenOptions qopt;
  qopt.num_keywords = 4;
  qopt.k = 5;
  auto queries = GenerateQueries(**kb, QueryClass::kOriginal, qopt, 3);
  ASSERT_FALSE(queries.empty());
  for (const KspQuery& q : queries) {
    auto oracle = BruteForceTopK(&executor, q);
    for (auto exec : {&QueryExecutor::ExecuteBsp, &QueryExecutor::ExecuteSpp,
                      &QueryExecutor::ExecuteSp, &QueryExecutor::ExecuteTa}) {
      auto result = (executor.*exec)(q, nullptr);
      ASSERT_TRUE(result.ok());
      ASSERT_EQ(result->entries.size(), oracle.size());
      for (size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_NEAR(result->entries[i].score, oracle[i].first, 1e-9);
      }
    }
  }
}

TEST(EquivalenceUndirectedTest, FutureWorkEdgeModeAgrees) {
  auto profile = SyntheticProfile::YagoLike(800);
  auto kb = GenerateKnowledgeBase(profile);
  ASSERT_TRUE(kb.ok());
  KspOptions options;
  options.undirected_edges = true;
  KspDatabase db(kb->get(), options);
  db.PrepareAll(2);
  QueryExecutor executor(&db);

  QueryGenOptions qopt;
  qopt.num_keywords = 4;
  qopt.k = 4;
  auto queries = GenerateQueries(**kb, QueryClass::kOriginal, qopt, 3);
  ASSERT_FALSE(queries.empty());
  for (const KspQuery& q : queries) {
    auto oracle = BruteForceTopK(&executor, q);
    for (auto exec : {&QueryExecutor::ExecuteBsp, &QueryExecutor::ExecuteSpp,
                      &QueryExecutor::ExecuteSp, &QueryExecutor::ExecuteTa}) {
      auto result = (executor.*exec)(q, nullptr);
      ASSERT_TRUE(result.ok());
      ASSERT_EQ(result->entries.size(), oracle.size());
      for (size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_NEAR(result->entries[i].score, oracle[i].first, 1e-9);
        EXPECT_EQ(result->entries[i].place, oracle[i].second);
      }
    }
  }
}

TEST(TqspPropertyTest, LoosenessMatchesPerKeywordBfsOracle) {
  // L(T_p) must equal 1 + Σ_t min-BFS-distance(p, t), computed keyword by
  // keyword with an independent BFS.
  auto profile = SyntheticProfile::DBpediaLike(600);
  auto kb = GenerateKnowledgeBase(profile);
  ASSERT_TRUE(kb.ok());
  KspDatabase db(kb->get());
  db.BuildRTree();
  QueryExecutor executor(&db);

  QueryGenOptions qopt;
  qopt.num_keywords = 4;
  auto queries = GenerateQueries(**kb, QueryClass::kOriginal, qopt, 4);
  ASSERT_FALSE(queries.empty());

  const Graph& graph = (*kb)->graph();
  const DocumentStore& docs = (*kb)->documents();
  auto bfs_distance_to_term = [&](VertexId root, TermId term) -> double {
    std::vector<uint32_t> dist(graph.num_vertices(), 0xFFFFFFFFu);
    std::vector<VertexId> queue{root};
    dist[root] = 0;
    for (size_t qi = 0; qi < queue.size(); ++qi) {
      VertexId v = queue[qi];
      if (docs.Contains(v, term)) return dist[v];
      for (VertexId w : graph.OutNeighbors(v)) {
        if (dist[w] == 0xFFFFFFFFu) {
          dist[w] = dist[v] + 1;
          queue.push_back(w);
        }
      }
    }
    return std::numeric_limits<double>::infinity();
  };

  for (const KspQuery& q : queries) {
    for (PlaceId p = 0; p < std::min<uint32_t>((*kb)->num_places(), 30);
         ++p) {
      auto tree_or = executor.ComputeTqspForPlace(p, q);
      ASSERT_TRUE(tree_or.ok()) << tree_or.status().ToString();
      const SemanticPlaceTree& tree = *tree_or;
      // Oracle over deduplicated keywords.
      std::vector<TermId> terms;
      for (TermId t : q.keywords) {
        if (std::find(terms.begin(), terms.end(), t) == terms.end()) {
          terms.push_back(t);
        }
      }
      double expected = 1.0;
      for (TermId t : terms) {
        expected += bfs_distance_to_term((*kb)->place_vertex(p), t);
      }
      if (std::isinf(expected)) {
        EXPECT_FALSE(tree.IsQualified());
      } else {
        ASSERT_TRUE(tree.IsQualified());
        EXPECT_DOUBLE_EQ(tree.looseness, expected);
        // Matches must carry consistent paths.
        for (const auto& match : tree.matches) {
          ASSERT_FALSE(match.path.empty());
          EXPECT_EQ(match.path.front(), tree.root);
          EXPECT_EQ(match.path.back(), match.vertex);
          EXPECT_EQ(match.path.size(), match.distance + 1);
          EXPECT_TRUE(docs.Contains(match.vertex, match.term));
        }
      }
    }
  }
}

}  // namespace
}  // namespace ksp
