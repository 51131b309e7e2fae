// Brute-force oracle equivalence: a naive O(|P| · BFS) reference
// implementation of Definition 3 — one independent BFS per place, no
// R-tree, no pruning rules, no shared code with the engine's TQSP
// machinery — checked against BSP, SPP and SP on hundreds of seeded
// random queries. Any divergence in the top-k set, order, or looseness
// values is a correctness bug in one of the pruning rules.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "core/database.h"
#include "core/executor.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"
#include "query_corpus.h"
#include "rdf/knowledge_base.h"
#include "spatial/geometry.h"

namespace ksp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct OracleEntry {
  PlaceId place;
  double looseness;
  double spatial;
  double score;
};

/// The reference evaluator: for every place, dg(p, t_i) by plain BFS
/// from the place vertex over out-edges (the engine's default edge
/// direction), L(T_p) = 1 + Σ dg, f from the database's ranking function
/// on the exact point-to-point distance. Places missing any keyword are
/// unqualified and dropped (Definition 1).
class BruteForceOracle {
 public:
  explicit BruteForceOracle(const KspDatabase* db)
      : db_(db),
        kb_(db->kb()),
        seen_(kb_.num_vertices(), 0),
        dist_(kb_.num_vertices(), 0) {}

  /// All qualified places in ascending (score, place) order — the
  /// engine's TopKHeap tiebreak.
  std::vector<OracleEntry> RankAll(const KspQuery& query) {
    std::vector<TermId> terms;
    for (TermId t : query.keywords) {
      if (t == kInvalidTerm) return {};  // Unanswerable query.
      if (std::find(terms.begin(), terms.end(), t) == terms.end()) {
        terms.push_back(t);
      }
    }
    std::vector<OracleEntry> entries;
    for (PlaceId p = 0; p < kb_.num_places(); ++p) {
      const double looseness = Looseness(kb_.place_vertex(p), terms);
      if (looseness == kInf) continue;
      OracleEntry entry;
      entry.place = p;
      entry.looseness = looseness;
      entry.spatial = Distance(query.location, kb_.place_location(p));
      entry.score = db_->options().ranking.Score(looseness, entry.spatial);
      entries.push_back(entry);
    }
    std::sort(entries.begin(), entries.end(),
              [](const OracleEntry& a, const OracleEntry& b) {
                return a.score != b.score ? a.score < b.score
                                          : a.place < b.place;
              });
    return entries;
  }

 private:
  /// 1 + Σ_i min-hops from root to a vertex whose document contains
  /// t_i, or +inf if some keyword is unreachable.
  double Looseness(VertexId root, const std::vector<TermId>& terms) {
    const Graph& graph = kb_.graph();
    const DocumentStore& docs = kb_.documents();
    std::vector<uint32_t> best(terms.size(),
                               std::numeric_limits<uint32_t>::max());
    size_t found = 0;

    ++epoch_;
    queue_.clear();
    queue_.push_back(root);
    seen_[root] = epoch_;
    dist_[root] = 0;
    for (size_t qi = 0; qi < queue_.size() && found < terms.size(); ++qi) {
      const VertexId v = queue_[qi];
      for (size_t i = 0; i < terms.size(); ++i) {
        if (best[i] == std::numeric_limits<uint32_t>::max() &&
            docs.Contains(v, terms[i])) {
          best[i] = dist_[v];
          ++found;
        }
      }
      if (found == terms.size()) break;
      for (VertexId w : graph.OutNeighbors(v)) {
        if (seen_[w] != epoch_) {
          seen_[w] = epoch_;
          dist_[w] = dist_[v] + 1;
          queue_.push_back(w);
        }
      }
    }
    if (found < terms.size()) return kInf;
    double looseness = 1.0;
    for (uint32_t d : best) looseness += d;
    return looseness;
  }

  const KspDatabase* db_;
  const KnowledgeBase& kb_;
  std::vector<uint32_t> seen_;
  std::vector<uint32_t> dist_;
  std::vector<VertexId> queue_;
  uint32_t epoch_ = 0;
};

class OracleEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto kb = GenerateKnowledgeBase(SyntheticProfile::DBpediaLike(1500));
    ASSERT_TRUE(kb.ok()) << kb.status().ToString();
    kb_ = kb->release();
    db_ = new KspDatabase(kb_);
    db_->PrepareAll(/*alpha=*/3);

    // The shared 210-query seeded workload (tests/query_corpus.h).
    *queries_ = testing::MakeEquivalenceCorpus(*kb_);
    ASSERT_GE(queries_->size(), 200u);
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

  /// Runs every seeded query at every k and diffs against the oracle.
  void CheckAlgorithm(Execute execute, const char* name) {
    QueryExecutor executor(db_);
    BruteForceOracle oracle(db_);
    size_t nonempty = 0;
    for (size_t qi = 0; qi < queries_->size(); ++qi) {
      KspQuery query = (*queries_)[qi];
      const std::vector<OracleEntry> ranked = oracle.RankAll(query);
      for (uint32_t k : {1u, 5u, 10u}) {
        query.k = k;
        auto result = (executor.*execute)(query, nullptr);
        ASSERT_TRUE(result.ok())
            << name << " query " << qi << " k=" << k << ": "
            << result.status().ToString();
        const size_t expected = std::min<size_t>(k, ranked.size());
        ASSERT_EQ(result->entries.size(), expected)
            << name << " query " << qi << " k=" << k;
        for (size_t i = 0; i < expected; ++i) {
          const KspResultEntry& got = result->entries[i];
          const OracleEntry& want = ranked[i];
          ASSERT_EQ(got.place, want.place)
              << name << " query " << qi << " k=" << k << " rank " << i;
          ASSERT_DOUBLE_EQ(got.looseness, want.looseness)
              << name << " query " << qi << " k=" << k << " rank " << i;
          ASSERT_DOUBLE_EQ(got.spatial_distance, want.spatial)
              << name << " query " << qi << " k=" << k << " rank " << i;
          ASSERT_DOUBLE_EQ(got.score, want.score)
              << name << " query " << qi << " k=" << k << " rank " << i;
        }
        if (expected > 0) ++nonempty;
      }
    }
    // The workload must actually exercise the engine, not vacuously pass
    // on empty results.
    EXPECT_GT(nonempty, queries_->size());
  }

  static KnowledgeBase* kb_;
  static KspDatabase* db_;
  static std::vector<KspQuery>* queries_;
};

KnowledgeBase* OracleEquivalenceTest::kb_ = nullptr;
KspDatabase* OracleEquivalenceTest::db_ = nullptr;
std::vector<KspQuery>* OracleEquivalenceTest::queries_ =
    new std::vector<KspQuery>();

TEST_F(OracleEquivalenceTest, BspMatchesOracle) {
  CheckAlgorithm(&QueryExecutor::ExecuteBsp, "BSP");
}

TEST_F(OracleEquivalenceTest, SppMatchesOracle) {
  CheckAlgorithm(&QueryExecutor::ExecuteSpp, "SPP");
}

TEST_F(OracleEquivalenceTest, SpMatchesOracle) {
  CheckAlgorithm(&QueryExecutor::ExecuteSp, "SP");
}

// EXPLAIN rows are the per-candidate account of the run the counters sum
// up: each pruning rule leaves one row per prune, every TQSP
// construction leaves exactly one row (computed, in_topk, unqualified or
// Rule-2), the in_topk rows are the answer, and the answer is the plain
// Execute* answer. EXPLAIN bypasses both cache layers, so a database with
// an unlimited cache warmed by one pass must give identical rows.
TEST_F(OracleEquivalenceTest, ExplainRowsMatchCounters) {
  struct Algorithm {
    const char* name;
    KspAlgorithm algorithm;
    Execute execute;
  };
  const Algorithm algorithms[] = {
      {"BSP", KspAlgorithm::kBsp, &QueryExecutor::ExecuteBsp},
      {"SPP", KspAlgorithm::kSpp, &QueryExecutor::ExecuteSpp},
      {"SP", KspAlgorithm::kSp, &QueryExecutor::ExecuteSp},
  };
  constexpr uint32_t kKs[] = {1, 5, 10};
  constexpr size_t kOutcomes = 7;
  uint64_t totals[kOutcomes] = {};

  auto check_tree = [&](const RTreeOptions& rtree_options) {
    KspOptions options;
    options.rtree_options = rtree_options;
    KspDatabase db(kb_, options);
    db.PrepareAll(/*alpha=*/3);
    options.cache_budget_bytes = kCacheUnlimited;
    KspDatabase cached_db(kb_, options);
    cached_db.PrepareAll(/*alpha=*/3);
    QueryExecutor executor(&db);
    QueryExecutor cached_executor(&cached_db);
    for (KspQuery query : *queries_) {
      for (uint32_t k : kKs) {
        query.k = k;
        for (const Algorithm& algo : algorithms) {
          ASSERT_TRUE((cached_executor.*algo.execute)(query, nullptr).ok());
        }
      }
    }
    ASSERT_GT(cached_db.semantic_cache()->TotalBytes(), 0u);

    for (size_t qi = 0; qi < queries_->size(); ++qi) {
      KspQuery query = (*queries_)[qi];
      for (uint32_t k : kKs) {
        query.k = k;
        for (const Algorithm& algo : algorithms) {
          SCOPED_TRACE(::testing::Message()
                       << algo.name << " query " << qi << " k=" << k
                       << " fan-out " << rtree_options.max_entries);
          QueryStats plain_stats;
          auto plain = (executor.*algo.execute)(query, &plain_stats);
          ASSERT_TRUE(plain.ok()) << plain.status().ToString();
          auto report = executor.Explain(query, algo.algorithm);
          ASSERT_TRUE(report.ok()) << report.status().ToString();
          const QueryStats& st = report->stats;
          ASSERT_TRUE(st.completed);

          uint64_t rows[kOutcomes] = {};
          for (const ExplainCandidate& c : report->candidates) {
            ++rows[static_cast<size_t>(c.outcome)];
            ++totals[static_cast<size_t>(c.outcome)];
          }
          auto count = [&](CandidateOutcome outcome) {
            return rows[static_cast<size_t>(outcome)];
          };
          EXPECT_EQ(count(CandidateOutcome::kPrunedRule1),
                    st.pruned_unqualified);
          EXPECT_EQ(count(CandidateOutcome::kPrunedRule2),
                    st.pruned_dynamic_bound);
          EXPECT_EQ(count(CandidateOutcome::kPrunedRule3),
                    st.pruned_alpha_place);
          EXPECT_EQ(count(CandidateOutcome::kPrunedRule4),
                    st.pruned_alpha_node);
          EXPECT_EQ(count(CandidateOutcome::kComputed) +
                        count(CandidateOutcome::kInTopK) +
                        count(CandidateOutcome::kUnqualified) +
                        count(CandidateOutcome::kPrunedRule2),
                    st.tqsp_computations);
          EXPECT_EQ(count(CandidateOutcome::kInTopK),
                    report->result.entries.size());

          // The same search as the plain run: same counters, same answer.
          EXPECT_EQ(st.tqsp_computations, plain_stats.tqsp_computations);
          EXPECT_EQ(st.vertices_visited, plain_stats.vertices_visited);
          EXPECT_EQ(st.rtree_nodes_accessed,
                    plain_stats.rtree_nodes_accessed);
          EXPECT_EQ(st.pruned_unqualified, plain_stats.pruned_unqualified);
          EXPECT_EQ(st.pruned_dynamic_bound,
                    plain_stats.pruned_dynamic_bound);
          EXPECT_EQ(st.pruned_alpha_place, plain_stats.pruned_alpha_place);
          EXPECT_EQ(st.pruned_alpha_node, plain_stats.pruned_alpha_node);
          ASSERT_EQ(report->result.entries.size(), plain->entries.size());
          for (size_t i = 0; i < plain->entries.size(); ++i) {
            EXPECT_EQ(report->result.entries[i].place,
                      plain->entries[i].place);
            EXPECT_EQ(report->result.entries[i].score,
                      plain->entries[i].score);
            EXPECT_EQ(report->result.entries[i].looseness,
                      plain->entries[i].looseness);
          }

          auto cached = cached_executor.Explain(query, algo.algorithm);
          ASSERT_TRUE(cached.ok()) << cached.status().ToString();
          EXPECT_EQ(cached->stats.result_cache_hits, 0u);
          EXPECT_EQ(cached->stats.dg_cache_hits, 0u);
          EXPECT_EQ(cached->termination, report->termination);
          ASSERT_EQ(cached->candidates.size(), report->candidates.size());
          for (size_t i = 0; i < report->candidates.size(); ++i) {
            const ExplainCandidate& want = report->candidates[i];
            const ExplainCandidate& got = cached->candidates[i];
            EXPECT_EQ(got.order, want.order) << "row " << i;
            EXPECT_EQ(got.is_node, want.is_node) << "row " << i;
            EXPECT_EQ(got.place, want.place) << "row " << i;
            EXPECT_EQ(got.node_id, want.node_id) << "row " << i;
            EXPECT_EQ(got.spatial_distance, want.spatial_distance)
                << "row " << i;
            EXPECT_EQ(got.threshold, want.threshold) << "row " << i;
            EXPECT_EQ(got.score_bound, want.score_bound) << "row " << i;
            EXPECT_EQ(got.looseness, want.looseness) << "row " << i;
            EXPECT_EQ(got.score, want.score) << "row " << i;
            EXPECT_EQ(got.outcome, want.outcome) << "row " << i;
          }
        }
      }
    }
  };

  // With the default fan-out of 64 the tree over this KB is shallow and
  // the corpus never fires Rules 3 or 4; a fan-out-4 tree is deep enough
  // for SP to prune both kinds.
  check_tree(RTreeOptions());
  RTreeOptions deep;
  deep.max_entries = 4;
  deep.min_entries = 2;
  check_tree(deep);

  // The rows these checks count must occur. Every place of this KB
  // reaches every corpus keyword, so Rule 1 (and BSP's unqualified
  // outcome) never fires here; the Figure-1 Explain tests pin those rows.
  for (CandidateOutcome outcome :
       {CandidateOutcome::kInTopK, CandidateOutcome::kComputed,
        CandidateOutcome::kPrunedRule2, CandidateOutcome::kPrunedRule3,
        CandidateOutcome::kPrunedRule4}) {
    EXPECT_GT(totals[static_cast<size_t>(outcome)], 0u)
        << CandidateOutcomeName(outcome);
  }
}

}  // namespace
}  // namespace ksp
