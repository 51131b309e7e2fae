// Component micro-benchmark: phase-exclusive cost of the two dominant
// engine phases (tqsp_compute + bfs_expand, which the trace layer shows
// dominating every Figure-5/9 workload) on the Figure-5 keyword sweep,
// plus per-operation substrate costs (posting fetch, bounded BFS). This
// is the measurement harness for the raw-speed pass (DESIGN.md §13):
// diff the phase_exclusive_us totals in the JSON rows of two builds
// (methodology: docs/BENCHMARKS.md).
//
// The bench goes through ksp::bench::RunWorkload, so --warmup/--repeat
// give it the same untimed-warmup + median-of-passes treatment as every
// figure bench, and --json-out emits the stable schema_version-1
// document.

#include <chrono>
#include <cstdio>
#include <functional>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "spatial/rtree.h"

namespace {

using namespace ksp::bench;

/// Substrate micro-rows: per-operation costs reported through the same
/// stats pipeline (wall_us carries one sample per timed op batch). These
/// quantify the paper's §6.2.6 observation that spatial operations are
/// orders of magnitude cheaper than graph-browsing operations.
double TimeUs(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void RunSubstrateRows(const ksp::KnowledgeBase& kb,
                      const ksp::KspDatabase& db) {
  constexpr int kOps = 20000;

  // Posting-list fetch through the (memory) inverted index.
  {
    ksp::Rng rng(8);
    const uint32_t terms = kb.num_terms();
    std::vector<ksp::VertexId> out;
    const double us = TimeUs([&] {
      for (int i = 0; i < kOps; ++i) {
        out.clear();
        (void)kb.inverted_index().GetPostings(
            static_cast<ksp::TermId>(rng.NextBounded(terms)), &out);
      }
    });
    std::printf("%-24s %12.1f us / %d ops (%.3f us/op)\n",
                "postings_fetch", us, kOps, us / kOps);
  }

  // Bounded CSR BFS (2000 pops), the graph-browsing primitive.
  {
    const ksp::Graph& graph = kb.graph();
    ksp::Rng rng(7);
    const uint32_t n = graph.num_vertices();
    std::vector<uint32_t> seen(n, 0);
    uint32_t epoch = 0;
    std::vector<ksp::VertexId> queue;
    constexpr int kRuns = 200;
    const double us = TimeUs([&] {
      for (int r = 0; r < kRuns; ++r) {
        ++epoch;
        queue.clear();
        ksp::VertexId root =
            static_cast<ksp::VertexId>(rng.NextBounded(n));
        queue.push_back(root);
        seen[root] = epoch;
        size_t visited = 0;
        for (size_t qi = 0; qi < queue.size() && visited < 2000; ++qi) {
          ++visited;
          for (ksp::VertexId w : graph.OutNeighbors(queue[qi])) {
            if (seen[w] != epoch) {
              seen[w] = epoch;
              queue.push_back(w);
            }
          }
        }
      }
    });
    std::printf("%-24s %12.1f us / %d runs (%.1f us/run)\n",
                "memory_graph_bfs", us, kRuns, us / kRuns);
  }

  // R-tree incremental nearest-neighbor (spatial side of the paper's
  // comparison).
  {
    ksp::Rng rng(3);
    constexpr int kRuns = 2000;
    const double us = TimeUs([&] {
      for (int r = 0; r < kRuns; ++r) {
        ksp::Point q{rng.NextDouble(35, 60), rng.NextDouble(-10, 30)};
        ksp::NearestIterator it(&db.rtree(), q);
        ksp::NearestIterator::Item item;
        for (int i = 0; i < 10 && it.NextData(&item); ++i) {
        }
      }
    });
    std::printf("%-24s %12.1f us / %d runs (%.3f us/run)\n",
                "rtree_nn10", us, kRuns, us / kRuns);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const BenchEnv env = BenchEnv::FromArgs(argc, argv);
  std::printf("=== Micro components: phase-exclusive hot-path costs ===\n");

  auto kb = MakeDataset(/*dbpedia_like=*/true,
                        env.Scaled(kDBpediaBaseVertices));
  PrintDatasetSummary("dbpedia-like", *kb);
  auto db = MakeDatabase(kb.get(), env, /*alpha=*/3);

  RunSubstrateRows(*kb, *db);
  std::printf("\n");

  // The Figure-5 keyword sweep (|q.psi| ∈ {1,3,5,8,10}, k = 5, same
  // seeds as bench_fig5) — the workload the tentpole's ≥2x target on
  // tqsp_compute + bfs_expand is measured against. RunWorkload applies
  // --warmup untimed passes and reports the --repeat median pass; with
  // --json-out each row carries the per-phase exclusive totals.
  PrintStatsHeader();
  for (uint32_t m : {1u, 3u, 5u, 8u, 10u}) {
    ksp::QueryGenOptions qopt;
    qopt.num_keywords = m;
    qopt.k = 5;
    qopt.seed = 500 + m;
    auto queries = ksp::GenerateQueries(*kb, ksp::QueryClass::kOriginal,
                                        qopt, env.queries);
    char config[32];
    std::snprintf(config, sizeof(config), "|q.psi|=%u", m);
    for (Algo algo : {Algo::kBsp, Algo::kSpp, Algo::kSp}) {
      PrintStatsRow(config, algo, RunWorkload(*db, algo, queries, 5));
    }
  }
  return ksp::bench::Finish();
}
