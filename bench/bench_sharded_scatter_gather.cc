// Sharded scatter-gather (DESIGN.md §12): the Figure-5 workload
// (|q.ψ| ∈ {3, 5}, k = 5, α = 3) answered by a ShardedKspDatabase at
// K ∈ {1, 2, 4, 8} STR tiles, against the K=1 baseline. Each JSON row
// carries the additive `shard` annotation (count, shards visited/pruned,
// prune rate, build time, summed α-index bytes and postings) next to the
// usual wall-time percentiles, so the artifact shows how much of the
// shard fleet the mindist-ordered θ gate skips, that a shard's α index
// grows with its tile, not with the KB, and what a posting costs.

#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "common/logging.h"
#include "common/timer.h"
#include "shard/partition.h"
#include "shard/sharded_database.h"
#include "shard/sharded_executor.h"

namespace {

using namespace ksp::bench;

/// RunWorkload for the sharded executor: same timing/stat conventions
/// (per-query wall µs, summed QueryStats), no warmup/repeat machinery —
/// this bench compares shard counts against each other in one pass.
WorkloadStats RunShardedWorkload(const ksp::ShardedKspDatabase& db,
                                 Algo algo,
                                 const std::vector<ksp::KspQuery>& queries,
                                 uint32_t k) {
  ksp::ShardedExecutor executor(&db);
  WorkloadStats stats;
  for (const ksp::KspQuery& base : queries) {
    ksp::KspQuery query = base;
    if (k != 0) query.k = k;
    ksp::QueryStats qs;
    auto result = executor.Execute(algo, query, &qs);
    KSP_CHECK(result.ok()) << result.status().ToString();
    stats.sum.Accumulate(qs);
    stats.wall_us.push_back(qs.total_ms * 1000.0);
    ++stats.num_queries;
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchEnv env = BenchEnv::FromArgs(argc, argv);
  std::printf("=== Sharded scatter-gather: varying shard count ===\n");

  auto kb = MakeDataset(/*dbpedia_like=*/true,
                        env.Scaled(kDBpediaBaseVertices));
  PrintDatasetSummary("dbpedia-like", *kb);

  ksp::KspOptions options;
  options.time_limit_ms = env.time_limit_ms;
  if (env.backend == ksp::StorageBackend::kDisk) {
    options.backend = ksp::StorageBackend::kDisk;
    if (env.bufferpool_budget != 0) {
      options.buffer_pool_budget_bytes = env.bufferpool_budget;
    }
  }

  PrintStatsHeader();
  for (uint32_t num_shards : {1u, 2u, 4u, 8u}) {
    auto partition = ksp::StrPartition(*kb, num_shards);
    ksp::Timer build_timer;
    build_timer.Start();
    auto sharded =
        ksp::ShardedKspDatabase::Build(kb.get(), options, partition,
                                       /*alpha=*/3);
    const double build_s = build_timer.ElapsedSeconds();
    KSP_CHECK(sharded.ok()) << sharded.status().ToString();
    uint64_t alpha_bytes = 0;
    uint64_t alpha_postings = 0;
    for (uint32_t i = 0; i < (*sharded)->num_shards(); ++i) {
      const ksp::KspDatabase* shard = (*sharded)->shard(i);
      if (shard == nullptr) continue;
      alpha_bytes += shard->alpha_index()->SizeBytes();
      alpha_postings += shard->alpha_index()->TotalEntries();
    }
    std::printf(
        "K=%u: build %.3f s, alpha index %.2f MiB, %llu postings over all "
        "shards\n",
        num_shards, build_s, static_cast<double>(alpha_bytes) / (1 << 20),
        static_cast<unsigned long long>(alpha_postings));
    SetShardRowAnnotation(num_shards, build_s, alpha_bytes, alpha_postings);

    for (uint32_t m : {3u, 5u}) {
      ksp::QueryGenOptions qopt;
      qopt.num_keywords = m;
      qopt.k = 5;
      qopt.seed = 500 + m;
      auto queries = ksp::GenerateQueries(*kb, ksp::QueryClass::kOriginal,
                                          qopt, env.queries);
      char config[40];
      std::snprintf(config, sizeof(config), "K=%u |q.psi|=%u", num_shards,
                    m);
      for (Algo algo : {Algo::kBsp, Algo::kSpp, Algo::kSp}) {
        PrintStatsRow(config, algo,
                      RunShardedWorkload(**sharded, algo, queries, 5));
      }
    }
  }
  SetShardRowAnnotation(0);
  return ksp::bench::Finish();
}
