// Property tier: the u64-bitset keyword-cover machinery (DESIGN.md §13)
// against straightforward set-based references. Three layers:
//
//  1. End-to-end TQSP merge/qualification on random knowledge bases:
//     the executor's bitset cover tracking over its per-vertex keyword
//     masks (M_q.ψ) vs a reference BFS that tracks covered keywords as
//     an ordered set — looseness, match (term, vertex, distance)
//     triples, path well-formedness, and the unqualified (+inf) verdict
//     must agree, up to and including the 64-keyword boundary.
//  2. The contract edges: exactly 64 distinct keywords work (full_mask
//     = ~0), duplicates dedup before the limit, and >64 distinct
//     keywords fail with InvalidArgument.
//  3. Algorithm 3's decisions and pop counts: every place row of an SPP
//     EXPLAIN against a literal FIFO replay that tests Lemma 1 at every
//     pop — outcome, looseness, summed pops and Rule-2 aborts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/database.h"
#include "core/executor.h"
#include "rdf/knowledge_base.h"

namespace ksp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------
// Layer 1: end-to-end TQSP cover merging on random knowledge bases.
// ---------------------------------------------------------------------

/// Pure-alpha keyword names so tokenization is the identity.
std::string TermName(uint32_t i) {
  std::string name = "kw";
  name += static_cast<char>('a' + i / 26);
  name += static_cast<char>('a' + i % 26);
  return name;
}

struct RandomKbSpec {
  uint32_t num_vertices = 0;
  uint32_t num_terms = 0;  // distinct query keywords planted in the KB
};

/// Random directed KB: every vertex gets a handful of out-edges, ~1/5
/// of vertices are places, and each of the `num_terms` keywords is
/// planted on 1-3 random vertices. Reachability is NOT guaranteed, so
/// the unqualified (+inf looseness) verdict is exercised naturally.
std::unique_ptr<KnowledgeBase> MakeRandomKb(const RandomKbSpec& spec,
                                            std::mt19937_64* rng) {
  KnowledgeBaseBuilder builder;
  std::vector<VertexId> vertices;
  vertices.reserve(spec.num_vertices);
  for (uint32_t i = 0; i < spec.num_vertices; ++i) {
    vertices.push_back(
        builder.AddEntity("http://t/v" + std::to_string(i)));
  }
  for (uint32_t i = 0; i < spec.num_vertices; ++i) {
    const uint32_t degree = static_cast<uint32_t>((*rng)() % 4);
    for (uint32_t e = 0; e < degree; ++e) {
      const VertexId dst =
          vertices[static_cast<size_t>((*rng)() % spec.num_vertices)];
      builder.AddRelation(vertices[i], dst, "http://t/rel");
    }
  }
  for (uint32_t i = 0; i < spec.num_vertices; i += 5) {
    builder.SetLocation(vertices[i],
                        Point{static_cast<double>((*rng)() % 100),
                              static_cast<double>((*rng)() % 100)});
  }
  for (uint32_t t = 0; t < spec.num_terms; ++t) {
    const uint32_t copies = 1 + static_cast<uint32_t>((*rng)() % 3);
    for (uint32_t c = 0; c < copies; ++c) {
      const VertexId v =
          vertices[static_cast<size_t>((*rng)() % spec.num_vertices)];
      builder.AddDocumentTerm(v, TermName(t));
    }
  }
  auto kb = builder.Finish();
  EXPECT_TRUE(kb.ok()) << kb.status().ToString();
  return kb.ok() ? std::move(*kb) : nullptr;
}

struct ReferenceMatch {
  TermId term = kInvalidTerm;
  VertexId vertex = kInvalidVertex;
  uint32_t distance = 0;
};

struct ReferenceTree {
  double looseness = kInf;
  std::vector<ReferenceMatch> matches;
};

/// The pre-bitset formulation: a FIFO BFS whose uncovered-keyword state
/// is an ordered set of deduplicated query positions, covers resolved
/// via DocumentStore::Contains. Matches are recorded in pop order, ties
/// within a pop in deduplicated query order — exactly the order the
/// executor's countr_zero bit walk produces.
ReferenceTree ReferenceTqsp(const KnowledgeBase& kb, VertexId root,
                            const std::vector<TermId>& query_terms) {
  std::vector<TermId> terms;
  for (TermId t : query_terms) {
    if (std::find(terms.begin(), terms.end(), t) == terms.end()) {
      terms.push_back(t);
    }
  }
  std::set<size_t> uncovered;
  for (size_t i = 0; i < terms.size(); ++i) uncovered.insert(i);

  ReferenceTree out;
  const DocumentStore& docs = kb.documents();
  const Graph& graph = kb.graph();
  std::vector<char> seen(kb.num_vertices(), 0);
  std::deque<std::pair<VertexId, uint32_t>> queue;
  queue.emplace_back(root, 0);
  seen[root] = 1;
  double covered_sum = 0.0;
  while (!queue.empty() && !uncovered.empty()) {
    const auto [v, dist] = queue.front();
    queue.pop_front();
    std::vector<size_t> hit;
    for (size_t i : uncovered) {
      if (docs.Contains(v, terms[i])) hit.push_back(i);
    }
    for (size_t i : hit) {
      covered_sum += static_cast<double>(dist);
      out.matches.push_back(ReferenceMatch{terms[i], v, dist});
      uncovered.erase(i);
    }
    if (uncovered.empty()) break;
    for (VertexId w : graph.OutNeighbors(v)) {
      if (seen[w] == 0) {
        seen[w] = 1;
        queue.emplace_back(w, dist + 1);
      }
    }
  }
  out.looseness = uncovered.empty() ? 1.0 + covered_sum : kInf;
  return out;
}

bool HasEdge(const Graph& graph, VertexId src, VertexId dst) {
  const auto out = graph.OutNeighbors(src);
  return std::find(out.begin(), out.end(), dst) != out.end();
}

void ExpectTreeMatchesReference(const KnowledgeBase& kb,
                                const SemanticPlaceTree& got,
                                const ReferenceTree& want,
                                const std::string& context) {
  ASSERT_EQ(got.looseness, want.looseness) << context;
  ASSERT_EQ(got.IsQualified(), want.looseness != kInf) << context;
  if (!got.IsQualified()) return;
  ASSERT_EQ(got.matches.size(), want.matches.size()) << context;
  for (size_t m = 0; m < want.matches.size(); ++m) {
    const auto& gm = got.matches[m];
    const auto& wm = want.matches[m];
    ASSERT_EQ(gm.term, wm.term) << context << " match " << m;
    ASSERT_EQ(gm.vertex, wm.vertex) << context << " match " << m;
    ASSERT_EQ(gm.distance, wm.distance) << context << " match " << m;
    // The path is a real root-to-vertex walk of the right length.
    ASSERT_EQ(gm.path.size(), static_cast<size_t>(gm.distance) + 1)
        << context << " match " << m;
    ASSERT_EQ(gm.path.front(), got.root) << context << " match " << m;
    ASSERT_EQ(gm.path.back(), gm.vertex) << context << " match " << m;
    for (size_t s = 0; s + 1 < gm.path.size(); ++s) {
      ASSERT_TRUE(HasEdge(kb.graph(), gm.path[s], gm.path[s + 1]))
          << context << " match " << m << " step " << s;
    }
  }
}

TEST(BitsetCoverProperty, RandomTreesMatchSetBasedReferenceUpTo64Keywords) {
  std::mt19937_64 rng(0x7C5B64);
  for (int trial = 0; trial < 30; ++trial) {
    RandomKbSpec spec;
    spec.num_vertices = 20 + static_cast<uint32_t>(rng() % 100);
    // Mix of widths, biased toward the interesting ends, including the
    // exact 64-keyword boundary every third trial.
    switch (trial % 3) {
      case 0:
        spec.num_terms = 1 + static_cast<uint32_t>(rng() % 8);
        break;
      case 1:
        spec.num_terms = 20 + static_cast<uint32_t>(rng() % 40);
        break;
      default:
        spec.num_terms = 64;
        break;
    }
    auto kb = MakeRandomKb(spec, &rng);
    ASSERT_NE(kb, nullptr);
    ASSERT_GT(kb->num_places(), 0u);

    KspDatabase db(kb.get());
    db.PrepareAll(/*alpha=*/3);
    QueryExecutor exec(&db);

    // Query keywords: a random subset (sometimes all) of the planted
    // terms, shuffled, with occasional duplicates appended — the dedup
    // must be invisible.
    std::vector<std::string> names;
    for (uint32_t t = 0; t < spec.num_terms; ++t) {
      names.push_back(TermName(t));
    }
    std::shuffle(names.begin(), names.end(), rng);
    const size_t take =
        (trial % 3 == 2) ? names.size()
                         : 1 + static_cast<size_t>(rng() % names.size());
    names.resize(take);
    KspQuery query;
    query.location = Point{50, 50};
    query.k = 1;
    query.keywords = kb->LookupTerms(names);
    for (TermId t : query.keywords) ASSERT_NE(t, kInvalidTerm);
    if (rng() % 2 == 0 && query.keywords.size() < 64) {
      query.keywords.push_back(query.keywords.front());  // duplicate
    }

    for (PlaceId p = 0; p < kb->num_places(); ++p) {
      const std::string context = "trial " + std::to_string(trial) +
                                  " place " + std::to_string(p) + " m=" +
                                  std::to_string(take);
      auto tree = exec.ComputeTqspForPlace(p, query);
      ASSERT_TRUE(tree.ok()) << context << ": " << tree.status().ToString();
      const ReferenceTree want =
          ReferenceTqsp(*kb, kb->place_vertex(p), query.keywords);
      ExpectTreeMatchesReference(*kb, *tree, want, context);
    }
  }
}

// ---------------------------------------------------------------------
// Layer 2: the 64-keyword contract edges.
// ---------------------------------------------------------------------

/// Chain KB v0 -> v1 -> ... -> v{n-1}, place at v0, keyword t planted
/// on v_t. Every keyword distance is exact by construction.
std::unique_ptr<KnowledgeBase> MakeChainKb(uint32_t n) {
  KnowledgeBaseBuilder builder;
  std::vector<VertexId> vertices;
  for (uint32_t i = 0; i < n; ++i) {
    vertices.push_back(
        builder.AddEntity("http://t/chain" + std::to_string(i)));
  }
  for (uint32_t i = 0; i + 1 < n; ++i) {
    builder.AddRelation(vertices[i], vertices[i + 1], "http://t/rel");
  }
  builder.SetLocation(vertices[0], Point{0, 0});
  for (uint32_t i = 0; i < n; ++i) {
    builder.AddDocumentTerm(vertices[i], TermName(i));
  }
  auto kb = builder.Finish();
  EXPECT_TRUE(kb.ok()) << kb.status().ToString();
  return kb.ok() ? std::move(*kb) : nullptr;
}

TEST(BitsetCoverProperty, SixtyFourKeywordBoundaryIsExact) {
  auto kb = MakeChainKb(64);
  ASSERT_NE(kb, nullptr);
  KspDatabase db(kb.get());
  db.PrepareAll(/*alpha=*/3);
  QueryExecutor exec(&db);

  std::vector<std::string> names;
  for (uint32_t t = 0; t < 64; ++t) names.push_back(TermName(t));
  KspQuery query;
  query.k = 1;
  query.keywords = kb->LookupTerms(names);
  // 70 raw keywords, 64 distinct: dedup happens before the limit check.
  for (int d = 0; d < 6; ++d) query.keywords.push_back(query.keywords[d]);
  ASSERT_EQ(query.keywords.size(), 70u);

  auto tree = exec.ComputeTqspForPlace(0, query);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_TRUE(tree->IsQualified());
  // L = 1 + sum of distances 0..63 = 1 + 2016.
  EXPECT_EQ(tree->looseness, 2017.0);
  ASSERT_EQ(tree->matches.size(), 64u);
  const ReferenceTree want =
      ReferenceTqsp(*kb, kb->place_vertex(0), query.keywords);
  ExpectTreeMatchesReference(*kb, *tree, want, "chain64");
}

TEST(BitsetCoverProperty, MoreThan64DistinctKeywordsIsInvalidArgument) {
  auto kb = MakeChainKb(65);
  ASSERT_NE(kb, nullptr);
  KspDatabase db(kb.get());
  db.PrepareAll(/*alpha=*/3);
  QueryExecutor exec(&db);

  std::vector<std::string> names;
  for (uint32_t t = 0; t < 65; ++t) names.push_back(TermName(t));
  KspQuery query;
  query.k = 1;
  query.keywords = kb->LookupTerms(names);
  for (TermId t : query.keywords) ASSERT_NE(t, kInvalidTerm);

  // Every entry point that prepares a query context enforces the bound.
  auto tree = exec.ComputeTqspForPlace(0, query);
  ASSERT_FALSE(tree.ok());
  EXPECT_TRUE(tree.status().IsInvalidArgument())
      << tree.status().ToString();
  EXPECT_NE(tree.status().ToString().find("at most 64"), std::string::npos)
      << tree.status().ToString();

  auto result = exec.ExecuteBsp(query, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());

  // Dropping one keyword makes the same query legal again.
  query.keywords.pop_back();
  auto ok_tree = exec.ComputeTqspForPlace(0, query);
  ASSERT_TRUE(ok_tree.ok()) << ok_tree.status().ToString();
  EXPECT_TRUE(ok_tree->IsQualified());
}

// ---------------------------------------------------------------------
// Layer 3: Algorithm 3 (GetSemanticPlaceP) against a literal replay.
// ---------------------------------------------------------------------

enum class ReplayOutcome { kQualified, kPrunedRule2, kUnqualified };

struct Algorithm3Replay {
  ReplayOutcome outcome = ReplayOutcome::kUnqualified;
  double looseness = kInf;
  uint64_t pops = 0;
  /// Unqualified, and Lemma 1's bound at the level after the last pop
  /// reaches Lw: the frontier emptied exactly where the next pop would
  /// have aborted.
  bool exhausted_at_bound = false;
};

/// GetSemanticPlaceP as the paper states it: a FIFO BFS from `root`
/// that tests Lemma 1's bound 1 + Σ dg + d·|B| against `lw` at every
/// pop — the aborting pop is counted — and expands a vertex's edges
/// right after its pop (in-edges too when `undirected`).
Algorithm3Replay ReplayAlgorithm3(const KnowledgeBase& kb, bool undirected,
                                  VertexId root,
                                  const std::vector<TermId>& query_terms,
                                  double lw) {
  std::set<TermId> uncovered(query_terms.begin(), query_terms.end());
  const DocumentStore& docs = kb.documents();
  const Graph& graph = kb.graph();
  std::vector<char> seen(kb.num_vertices(), 0);
  std::deque<std::pair<VertexId, uint32_t>> queue;
  queue.emplace_back(root, 0);
  seen[root] = 1;
  double covered_sum = 0.0;
  uint32_t last_dist = 0;
  const auto bound = [&](uint32_t dist) {
    return 1.0 + covered_sum +
           static_cast<double>(dist) * static_cast<double>(uncovered.size());
  };

  Algorithm3Replay out;
  while (!queue.empty()) {
    const auto [v, dist] = queue.front();
    queue.pop_front();
    ++out.pops;
    last_dist = dist;
    if (bound(dist) >= lw) {
      out.outcome = ReplayOutcome::kPrunedRule2;
      return out;
    }
    for (auto it = uncovered.begin(); it != uncovered.end();) {
      if (docs.Contains(v, *it)) {
        covered_sum += static_cast<double>(dist);
        it = uncovered.erase(it);
      } else {
        ++it;
      }
    }
    if (uncovered.empty()) {
      out.outcome = ReplayOutcome::kQualified;
      out.looseness = 1.0 + covered_sum;
      return out;
    }
    auto visit = [&](std::span<const VertexId> neighbors) {
      for (VertexId w : neighbors) {
        if (seen[w] == 0) {
          seen[w] = 1;
          queue.emplace_back(w, dist + 1);
        }
      }
    };
    visit(graph.OutNeighbors(v));
    if (undirected) visit(graph.InNeighbors(v));
  }
  out.exhausted_at_bound = bound(last_dist + 1) >= lw;
  return out;
}

/// MakeRandomKb's out-degrees of 0-3 leave keywords unreachable and make
/// many searches run out of vertices, some exactly at the level where
/// the bound reaches Lw. Rule 1 is off, so those places reach the BFS.
TEST(BitsetCoverProperty, SppRowsAndCountersMatchLiteralAlgorithm3) {
  uint64_t exhausted_at_bound = 0;
  uint64_t outcomes[3] = {0, 0, 0};
  for (const bool undirected : {false, true}) {
    std::mt19937_64 rng(undirected ? 0xA13D : 0xA13);
    for (int trial = 0; trial < 24; ++trial) {
      RandomKbSpec spec;
      spec.num_vertices = 30 + static_cast<uint32_t>(rng() % 90);
      spec.num_terms = 2 + static_cast<uint32_t>(rng() % 6);
      auto kb = MakeRandomKb(spec, &rng);
      ASSERT_NE(kb, nullptr);
      KspOptions options;
      options.undirected_edges = undirected;
      options.use_unqualified_pruning = false;
      KspDatabase db(kb.get(), options);
      db.PrepareAll(/*alpha=*/3);
      QueryExecutor exec(&db);

      std::vector<std::string> names;
      for (uint32_t t = 0; t < spec.num_terms; ++t) {
        names.push_back(TermName(t));
      }
      std::shuffle(names.begin(), names.end(), rng);
      names.resize(1 + static_cast<size_t>(rng() % names.size()));
      for (const uint32_t k : {1u, 3u}) {
        KspQuery query;
        query.location = Point{static_cast<double>(rng() % 100),
                               static_cast<double>(rng() % 100)};
        query.k = k;
        query.keywords = kb->LookupTerms(names);
        const std::string context =
            std::string(undirected ? "undirected" : "directed") +
            " trial " + std::to_string(trial) + " k=" + std::to_string(k);

        auto report = exec.Explain(query, KspAlgorithm::kSpp);
        ASSERT_TRUE(report.ok()) << context << ": "
                                 << report.status().ToString();
        uint64_t pops = 0;
        uint64_t aborts = 0;
        for (const ExplainCandidate& row : report->candidates) {
          ASSERT_FALSE(row.is_node) << context;
          const double lw = options.ranking.LoosenessThreshold(
              row.threshold, row.spatial_distance);
          const Algorithm3Replay want =
              ReplayAlgorithm3(*kb, undirected, kb->place_vertex(row.place),
                               query.keywords, lw);
          const std::string where =
              context + " place " + std::to_string(row.place);
          pops += want.pops;
          ++outcomes[static_cast<int>(want.outcome)];
          switch (want.outcome) {
            case ReplayOutcome::kPrunedRule2:
              ++aborts;
              EXPECT_EQ(row.outcome, CandidateOutcome::kPrunedRule2) << where;
              EXPECT_EQ(row.looseness, lw) << where;
              break;
            case ReplayOutcome::kUnqualified:
              exhausted_at_bound += want.exhausted_at_bound;
              EXPECT_EQ(row.outcome, CandidateOutcome::kUnqualified) << where;
              EXPECT_EQ(row.looseness, kInf) << where;
              break;
            case ReplayOutcome::kQualified:
              EXPECT_TRUE(row.outcome == CandidateOutcome::kComputed ||
                          row.outcome == CandidateOutcome::kInTopK)
                  << where << ": " << CandidateOutcomeName(row.outcome);
              EXPECT_EQ(row.looseness, want.looseness) << where;
              break;
          }
        }
        EXPECT_EQ(report->stats.tqsp_computations,
                  report->candidates.size())
            << context;
        EXPECT_EQ(report->stats.vertices_visited, pops) << context;
        EXPECT_EQ(report->stats.pruned_dynamic_bound, aborts) << context;
      }
    }
  }
  // The seeds reach every outcome, and the boundary where the frontier
  // empties at the level whose first pop would abort.
  EXPECT_GT(outcomes[static_cast<int>(ReplayOutcome::kQualified)], 0u);
  EXPECT_GT(outcomes[static_cast<int>(ReplayOutcome::kPrunedRule2)], 0u);
  EXPECT_GT(outcomes[static_cast<int>(ReplayOutcome::kUnqualified)], 0u);
  EXPECT_GT(exhausted_at_bound, 0u);
}

}  // namespace
}  // namespace ksp
