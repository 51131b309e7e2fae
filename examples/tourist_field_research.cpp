// The paper's motivating scenario at scale: a tourist does field research
// around a location over a large knowledge base. This example generates a
// DBpedia-like synthetic KB, issues the same query from two different
// locations (Example 2 of the paper: answers change with the location),
// and compares the three kSP algorithms on the same workload.

#include <cstdio>

#include "common/timer.h"
#include "core/database.h"
#include "core/executor.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"

namespace {

void PrintResult(const ksp::KnowledgeBase& kb, const char* label,
                 const ksp::KspResult& result) {
  std::printf("%s\n", label);
  for (size_t i = 0; i < result.entries.size(); ++i) {
    const auto& e = result.entries[i];
    std::printf("  %zu. %-34s score=%8.3f  L=%3.0f  S=%6.3f\n", i + 1,
                kb.VertexIri(kb.place_vertex(e.place)).c_str(), e.score,
                e.looseness, e.spatial_distance);
  }
}

}  // namespace

int main() {
  std::printf("Generating a DBpedia-like knowledge base...\n");
  auto kb = ksp::GenerateKnowledgeBase(
      ksp::SyntheticProfile::DBpediaLike(20000));
  if (!kb.ok()) {
    std::fprintf(stderr, "%s\n", kb.status().ToString().c_str());
    return 1;
  }
  std::printf("  %u vertices, %llu edges, %u places\n",
              (*kb)->num_vertices(),
              static_cast<unsigned long long>((*kb)->num_edges()),
              (*kb)->num_places());

  ksp::KspDatabase db(kb->get());
  ksp::Timer prep;
  prep.Start();
  db.PrepareAll(/*alpha=*/3);
  ksp::QueryExecutor executor(&db);
  std::printf("  indexes built in %.2f s (R-tree %.2fs, reach %.2fs, "
              "alpha %.2fs)\n\n",
              prep.ElapsedSeconds(), db.preprocessing_times().rtree_s,
              db.preprocessing_times().reachability_s,
              db.preprocessing_times().alpha_s);

  // A generated query plays the tourist's keyword set; we then move the
  // tourist and show that the ranking is location-aware.
  ksp::QueryGenOptions qopt;
  qopt.num_keywords = 4;
  qopt.k = 3;
  auto queries = ksp::GenerateQueries(**kb, ksp::QueryClass::kOriginal,
                                      qopt, 1);
  if (queries.empty()) {
    std::fprintf(stderr, "could not generate a query\n");
    return 1;
  }
  ksp::KspQuery query = queries[0];
  std::printf("Query keywords:");
  for (ksp::TermId t : query.keywords) {
    std::printf(" %s", (*kb)->vocabulary().Term(t).c_str());
  }
  std::printf("\n\n");

  auto here = executor.ExecuteSp(query);
  if (!here.ok()) {
    std::fprintf(stderr, "%s\n", here.status().ToString().c_str());
    return 1;
  }
  PrintResult(**kb, "Top-3 from the tourist's location:", *here);

  ksp::KspQuery moved = query;
  moved.location.x += 5.0;  // The tourist travels ~5 degrees north.
  auto there = executor.ExecuteSp(moved);
  if (!there.ok()) return 1;
  PrintResult(**kb, "\nTop-3 after moving 5 degrees away:", *there);

  // Same answers, very different work: run all three algorithms.
  std::printf("\nAlgorithm comparison on this query:\n");
  for (const ksp::KspAlgorithm algorithm :
       {ksp::KspAlgorithm::kBsp, ksp::KspAlgorithm::kSpp,
        ksp::KspAlgorithm::kSp}) {
    ksp::QueryStats stats;
    auto result = executor.Execute(algorithm, query, &stats);
    if (!result.ok()) return 1;
    std::printf("  %-3s  %8.2f ms  (%llu TQSP computations, %llu R-tree "
                "nodes)\n",
                ksp::KspAlgorithmName(algorithm), stats.total_ms,
                static_cast<unsigned long long>(stats.tqsp_computations),
                static_cast<unsigned long long>(stats.rtree_nodes_accessed));
  }
  return 0;
}
