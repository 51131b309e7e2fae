#ifndef KSP_BENCH_BENCH_COMMON_H_
#define KSP_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/database.h"
#include "core/executor.h"
#include "core/trace.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"
#include "rdf/knowledge_base.h"

namespace ksp {
namespace bench {

/// Environment-driven bench configuration:
///   KSP_SCALE          dataset size multiplier (default 1.0)
///   KSP_QUERIES        queries per configuration (default 25; paper: 100)
///   KSP_TIME_LIMIT_MS  per-query abort limit (default 2000; paper: 120000
///                      for BSP)
/// Command-line flags (FromArgs):
///   --metrics-out=FILE  write the bench-wide ksp_* metrics snapshot
///                       (DESIGN.md §7) as JSON to FILE on exit
///   --json-out=FILE     write every PrintStatsRow row as a machine-readable
///                       JSON document (schema below) to FILE on exit
///   --warmup=N          run each workload N untimed passes first
///   --repeat=N          run each workload N timed passes and report the
///                       median pass (by total wall time); default 1
///   --cache-budget=N    semantic-cache byte budget (DESIGN.md §9) applied
///                       to every MakeDatabase; 0 (default) disables the
///                       cache, "unlimited" never evicts. Combine with
///                       --warmup/--repeat to measure warm-cache passes.
///   --backend=memory|disk
///                       storage backend (DESIGN.md §10) for every
///                       MakeDatabase; disk spills the indexes and serves
///                       queries through the shared buffer pool
///   --bufferpool-budget=BYTES
///                       buffer-pool byte budget for --backend=disk
///                       (default: the KspOptions default)
struct BenchEnv {
  double scale = 1.0;
  size_t queries = 25;
  double time_limit_ms = 2000.0;
  std::string metrics_out;  // empty: metrics collection off
  size_t warmup = 0;
  size_t repeat = 1;
  size_t cache_budget = 0;  // KspOptions::cache_budget_bytes for benches
  StorageBackend backend = StorageBackend::kMemory;
  uint64_t bufferpool_budget = 0;  // 0: keep the KspOptions default
  std::string json_out;  // empty: JSON row capture off

  static BenchEnv FromEnv();
  /// FromEnv() plus flag parsing; KSP_CHECK-fails on unknown flags. Also
  /// enables the process-wide bench metrics registry when --metrics-out
  /// is given (see BenchMetrics / Finish).
  static BenchEnv FromArgs(int argc, char** argv);

  uint32_t Scaled(uint32_t base) const {
    return static_cast<uint32_t>(base * scale) < 100
               ? 100
               : static_cast<uint32_t>(base * scale);
  }
};

/// Base dataset sizes standing in for the full DBpedia/Yago dumps.
inline constexpr uint32_t kDBpediaBaseVertices = 40000;
inline constexpr uint32_t kYagoBaseVertices = 40000;

/// Builds the calibrated dataset (see DESIGN.md substitution 1).
std::unique_ptr<KnowledgeBase> MakeDataset(bool dbpedia_like,
                                           uint32_t num_vertices);

/// Builds a fully prepared database; time limit from `env`.
std::unique_ptr<KspDatabase> MakeDatabase(const KnowledgeBase* kb,
                                          const BenchEnv& env, uint32_t alpha,
                                          KspOptions options = {});

/// Benches dispatch through the shared algorithm enum (KW included).
using Algo = KspAlgorithm;
inline const char* AlgoName(Algo algo) { return KspAlgorithmName(algo); }

/// Aggregated workload metrics (averages over queries, like §6 reports).
/// With --repeat=N this is the median timed pass; wall_us holds that
/// pass's per-query wall times and phase_exclusive_us its summed per-phase
/// exclusive trace time (populated only when --json-out or --metrics-out
/// keeps tracing on).
struct WorkloadStats {
  QueryStats sum;
  size_t num_queries = 0;
  size_t timed_out = 0;
  std::vector<double> wall_us;  // per-query wall time, microseconds
  double phase_exclusive_us[kNumTracePhases] = {};

  double AvgTotalMs() const { return Avg(sum.total_ms); }
  double AvgSemanticMs() const { return Avg(sum.semantic_ms); }
  double AvgOtherMs() const { return Avg(sum.total_ms - sum.semantic_ms); }
  double AvgTqsp() const {
    return Avg(static_cast<double>(sum.tqsp_computations));
  }
  double AvgRtreeNodes() const {
    return Avg(static_cast<double>(sum.rtree_nodes_accessed));
  }
  /// Nearest-rank percentiles over wall_us (0 when empty).
  double MedianWallUs() const { return PercentileWallUs(0.50); }
  double P95WallUs() const { return PercentileWallUs(0.95); }
  double PercentileWallUs(double q) const;

 private:
  double Avg(double total) const {
    return num_queries == 0 ? 0.0
                            : total / static_cast<double>(num_queries);
  }
};

/// Runs `queries` through one algorithm on a fresh QueryExecutor, with
/// `k` overriding each query's requested result size (pass 0 to keep the
/// generated k). Honors the FromArgs execution flags: --warmup adds
/// untimed passes, and --repeat returns the median timed pass.
WorkloadStats RunWorkload(const KspDatabase& db, Algo algo,
                          const std::vector<KspQuery>& queries, uint32_t k);

/// Collects the per-query results as well (Figure 8 needs result
/// statistics, not runtimes).
std::vector<KspResult> RunWorkloadCollect(const KspDatabase& db, Algo algo,
                                          const std::vector<KspQuery>& queries,
                                          uint32_t k);

/// Prints the standard per-row metrics line. With --json-out, the row is
/// also captured for the JSON document Finish() writes:
///   {"schema_version": 1, "bench": "<argv0 basename>",
///    "env": {scale, queries, time_limit_ms, warmup, repeat,
///            cache_budget, backend, bufferpool_budget, nproc, host,
///            git_sha},
///    "rows": [{config, algo, queries, timed_out, mean_wall_us,
///              median_wall_us, p95_wall_us, phase_exclusive_us: {<phase>:
///              µs, ...}, counters: {tqsp_computations,
///              rtree_nodes_accessed, vertices_visited},
///              cache: {dg_hits, dg_misses, dg_hit_rate, result_hits,
///                      result_misses, result_hit_rate, evictions},
///              backend: "memory"|"disk",
///              bufferpool: {budget_bytes, hits, misses, evictions},
///              shard: {count, shards_visited, shards_pruned,
///                      prune_rate, build_s, alpha_bytes,
///                      alpha_postings}}]}
/// Fields are never renamed (cache_budget, the cache object, backend,
/// the bufferpool object, the shard object, its build_s, alpha_bytes and
/// alpha_postings, and the env's nproc, host and git_sha were added; the
/// env's pipeline thread count and the rows' wasted-speculation counter
/// went with the intra-query pipeline; schema_version stays 1). nproc is
/// std::thread::hardware_concurrency(); git_sha is the HEAD of the
/// source tree the bench was built from, "" when that tree is not a git
/// checkout. The
/// row-level backend/bufferpool annotation reflects the most recent
/// MakeDatabase; the shard object appears only while
/// SetShardRowAnnotation is active.
void PrintStatsRow(const char* config, Algo algo,
                   const WorkloadStats& stats);

/// Marks subsequent PrintStatsRow rows as answered by a sharded
/// scatter-gather executor over `shard_count` shards (DESIGN.md §12):
/// each JSON row gains a `shard` object with the count, total shards
/// visited/pruned (from QueryStats), the prune rate, the wall time
/// ShardedKspDatabase::Build took (`build_s`), and the shards' summed
/// AlphaIndex::SizeBytes() (`alpha_bytes`) and TotalEntries()
/// (`alpha_postings`). Pass 0 to return to unsharded rows (also reset by
/// MakeDatabase).
void SetShardRowAnnotation(uint32_t shard_count, double build_s = 0.0,
                           uint64_t alpha_bytes = 0,
                           uint64_t alpha_postings = 0);

/// Prints the standard header for PrintStatsRow tables.
void PrintStatsHeader();

/// Prints the dataset summary line (§6.1-style statistics).
void PrintDatasetSummary(const char* label, const KnowledgeBase& kb);

/// The process-wide bench metrics registry, or nullptr until FromArgs
/// sees --metrics-out. RunWorkload / RunWorkloadCollect attach it to
/// their executors automatically.
MetricsRegistry* BenchMetrics();

/// Bench epilogue: writes the metrics snapshot to --metrics-out and the
/// captured rows to --json-out (each if enabled) and returns the process
/// exit code. Every bench main ends with `return ksp::bench::Finish();`.
int Finish();

}  // namespace bench
}  // namespace ksp

#endif  // KSP_BENCH_BENCH_COMMON_H_
