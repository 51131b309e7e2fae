#include "bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include <unistd.h>

#include "common/logging.h"
#include "rdf/kb_io.h"

namespace ksp {
namespace bench {

namespace {
double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::atof(value);
}

/// Set by FromArgs; nullptr keeps the query path metrics-free.
MetricsRegistry* g_metrics = nullptr;
std::string g_metrics_out;
/// Execution shape shared by every RunWorkload call in the process
/// (warmup / repeat), set once by FromArgs.
BenchEnv g_env;
/// --json-out capture: bench id from argv[0], pre-rendered row objects.
std::string g_json_out;
std::string g_bench_id = "bench";
std::vector<std::string> g_json_rows;
/// Row-level storage annotation, refreshed by every MakeDatabase so the
/// JSON rows name the backend/budget they actually ran against (the
/// memory-budget sweep builds one database per budget).
StorageBackend g_row_backend = StorageBackend::kMemory;
uint64_t g_row_bufferpool_budget = 0;
/// Sharded-row annotation (SetShardRowAnnotation): 0 = unsharded rows.
uint32_t g_row_shard_count = 0;
double g_row_shard_build_s = 0.0;
uint64_t g_row_shard_alpha_bytes = 0;
uint64_t g_row_shard_alpha_postings = 0;

const char* BackendName(StorageBackend backend) {
  return backend == StorageBackend::kDisk ? "disk" : "memory";
}

uint64_t ParseCount(const char* value, const char* flag) {
  char* end = nullptr;
  const unsigned long long n = std::strtoull(value, &end, 10);
  KSP_CHECK(end != value && *end == '\0')
      << flag << " requires an unsigned integer, got: " << value;
  return n;
}

std::string JsonEscape(const char* s) {
  std::string out;
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out.push_back('\\');
    out.push_back(*s);
  }
  return out;
}

std::string HostName() {
  char buf[256] = {};
  if (gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf;
}

/// HEAD of the source tree this bench was built from, or "" when that
/// tree is not the top of a git checkout (an exported copy, possibly
/// inside some other repository) or git cannot run.
std::string GitSha() {
  const std::string command = std::string("git -C '") + KSP_SOURCE_DIR +
                              "' rev-parse --show-toplevel HEAD 2>/dev/null";
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return "";
  char top[4096] = {};
  char sha[64] = {};
  const bool read = std::fscanf(pipe, "%4095s %63s", top, sha) == 2;
  if (::pclose(pipe) != 0 || !read) return "";
  std::error_code ec;
  return std::filesystem::equivalent(top, KSP_SOURCE_DIR, ec) ? sha : "";
}
}  // namespace

BenchEnv BenchEnv::FromEnv() {
  BenchEnv env;
  env.scale = EnvDouble("KSP_SCALE", 1.0);
  env.queries = static_cast<size_t>(EnvDouble("KSP_QUERIES", 25));
  env.time_limit_ms = EnvDouble("KSP_TIME_LIMIT_MS", 2000.0);
  if (env.scale <= 0) env.scale = 1.0;
  if (env.queries == 0) env.queries = 1;
  return env;
}

BenchEnv BenchEnv::FromArgs(int argc, char** argv) {
  BenchEnv env = FromEnv();
  if (argc > 0 && argv[0] != nullptr) {
    const char* slash = std::strrchr(argv[0], '/');
    g_bench_id = slash != nullptr ? slash + 1 : argv[0];
  }
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    constexpr const char kMetricsOut[] = "--metrics-out=";
    constexpr const char kJsonOut[] = "--json-out=";
    constexpr const char kWarmup[] = "--warmup=";
    constexpr const char kRepeat[] = "--repeat=";
    constexpr const char kCacheBudget[] = "--cache-budget=";
    if (std::strncmp(arg, kMetricsOut, sizeof(kMetricsOut) - 1) == 0) {
      env.metrics_out = arg + sizeof(kMetricsOut) - 1;
      KSP_CHECK(!env.metrics_out.empty())
          << "--metrics-out requires a file path";
      continue;
    }
    if (std::strncmp(arg, kJsonOut, sizeof(kJsonOut) - 1) == 0) {
      env.json_out = arg + sizeof(kJsonOut) - 1;
      KSP_CHECK(!env.json_out.empty()) << "--json-out requires a file path";
      continue;
    }
    if (std::strncmp(arg, kWarmup, sizeof(kWarmup) - 1) == 0) {
      env.warmup = ParseCount(arg + sizeof(kWarmup) - 1, "--warmup");
      continue;
    }
    if (std::strncmp(arg, kRepeat, sizeof(kRepeat) - 1) == 0) {
      env.repeat = ParseCount(arg + sizeof(kRepeat) - 1, "--repeat");
      if (env.repeat == 0) env.repeat = 1;
      continue;
    }
    if (std::strncmp(arg, kCacheBudget, sizeof(kCacheBudget) - 1) == 0) {
      const char* value = arg + sizeof(kCacheBudget) - 1;
      env.cache_budget = std::strcmp(value, "unlimited") == 0
                             ? kCacheUnlimited
                             : ParseCount(value, "--cache-budget");
      continue;
    }
    constexpr const char kBackend[] = "--backend=";
    constexpr const char kBufferPoolBudget[] = "--bufferpool-budget=";
    if (std::strncmp(arg, kBackend, sizeof(kBackend) - 1) == 0) {
      const char* value = arg + sizeof(kBackend) - 1;
      if (std::strcmp(value, "memory") == 0) {
        env.backend = StorageBackend::kMemory;
      } else if (std::strcmp(value, "disk") == 0) {
        env.backend = StorageBackend::kDisk;
      } else {
        KSP_CHECK(false) << "--backend must be memory or disk, got: "
                         << value;
      }
      continue;
    }
    if (std::strncmp(arg, kBufferPoolBudget,
                     sizeof(kBufferPoolBudget) - 1) == 0) {
      env.bufferpool_budget = ParseCount(
          arg + sizeof(kBufferPoolBudget) - 1, "--bufferpool-budget");
      continue;
    }
    KSP_CHECK(false) << "unknown flag: " << arg
                     << " (supported: --metrics-out=FILE --json-out=FILE "
                        "--warmup=N --repeat=N "
                        "--cache-budget=BYTES|unlimited "
                        "--backend=memory|disk --bufferpool-budget=BYTES)";
  }
  if (!env.metrics_out.empty()) {
    static MetricsRegistry registry;
    g_metrics = &registry;
    g_metrics_out = env.metrics_out;
  }
  g_json_out = env.json_out;
  g_env = env;
  return env;
}

MetricsRegistry* BenchMetrics() { return g_metrics; }

namespace {
int WriteFile(const std::string& path, const std::string& content,
              const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s file %s\n", what, path.c_str());
    return 1;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::fprintf(stderr, "%s written to %s\n", what, path.c_str());
  return 0;
}
}  // namespace

int Finish() {
  int rc = 0;
  if (g_metrics != nullptr) {
    rc |= WriteFile(g_metrics_out, g_metrics->Snapshot().ToJson(),
                    "metrics snapshot");
  }
  if (!g_json_out.empty()) {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\n  \"schema_version\": 1,\n  \"bench\": \"%s\",\n"
                  "  \"env\": {\"scale\": %g, \"queries\": %zu,"
                  " \"time_limit_ms\": %g,"
                  " \"warmup\": %zu, \"repeat\": %zu,"
                  " \"cache_budget\": %llu, \"backend\": \"%s\","
                  " \"bufferpool_budget\": %llu, \"nproc\": %u,",
                  JsonEscape(g_bench_id.c_str()).c_str(), g_env.scale,
                  g_env.queries, g_env.time_limit_ms, g_env.warmup,
                  g_env.repeat,
                  static_cast<unsigned long long>(g_env.cache_budget),
                  BackendName(g_env.backend),
                  static_cast<unsigned long long>(g_env.bufferpool_budget),
                  std::thread::hardware_concurrency());
    std::string doc = buf;
    doc += " \"host\": \"" + JsonEscape(HostName().c_str()) +
           "\", \"git_sha\": \"" + JsonEscape(GitSha().c_str()) +
           "\"},\n  \"rows\": [\n";
    for (size_t i = 0; i < g_json_rows.size(); ++i) {
      doc += g_json_rows[i];
      if (i + 1 < g_json_rows.size()) doc += ",";
      doc += "\n";
    }
    doc += "  ]\n}";
    rc |= WriteFile(g_json_out, doc, "bench JSON");
  }
  return rc;
}

std::unique_ptr<KnowledgeBase> MakeDataset(bool dbpedia_like,
                                           uint32_t num_vertices) {
  // Generation is deterministic, so benches share cached snapshots.
  char cache_path[128];
  std::snprintf(cache_path, sizeof(cache_path),
                "/tmp/ksp_bench_%s_%u.kbsnap",
                dbpedia_like ? "dbpedia" : "yago", num_vertices);
  if (auto cached = LoadKnowledgeBaseSnapshot(cache_path); cached.ok()) {
    return std::move(*cached);
  }
  SyntheticProfile profile = dbpedia_like
                                 ? SyntheticProfile::DBpediaLike(num_vertices)
                                 : SyntheticProfile::YagoLike(num_vertices);
  auto kb = GenerateKnowledgeBase(profile);
  KSP_CHECK(kb.ok()) << kb.status().ToString();
  if (Status st = SaveKnowledgeBase(**kb, cache_path); !st.ok()) {
    KSP_LOG(kWarning) << "snapshot cache write failed: " << st.ToString();
  }
  return std::move(*kb);
}

std::unique_ptr<KspDatabase> MakeDatabase(const KnowledgeBase* kb,
                                          const BenchEnv& env, uint32_t alpha,
                                          KspOptions options) {
  options.time_limit_ms = env.time_limit_ms;
  // Flag wins only when given, so benches hard-coding a budget keep it.
  if (env.cache_budget != 0) options.cache_budget_bytes = env.cache_budget;
  if (env.backend == StorageBackend::kDisk) {
    options.backend = StorageBackend::kDisk;
  }
  if (env.bufferpool_budget != 0) {
    options.buffer_pool_budget_bytes = env.bufferpool_budget;
  }
  auto db = std::make_unique<KspDatabase>(kb, options);
  db->PrepareAll(alpha);
  KSP_CHECK(db->storage_backend_status().ok())
      << db->storage_backend_status().ToString();
  g_row_backend = options.backend;
  g_row_bufferpool_budget = options.backend == StorageBackend::kDisk
                                ? options.buffer_pool_budget_bytes
                                : 0;
  g_row_shard_count = 0;  // A fresh unsharded database ends sharded rows.
  return db;
}

void SetShardRowAnnotation(uint32_t shard_count, double build_s,
                           uint64_t alpha_bytes, uint64_t alpha_postings) {
  g_row_shard_count = shard_count;
  g_row_shard_build_s = build_s;
  g_row_shard_alpha_bytes = alpha_bytes;
  g_row_shard_alpha_postings = alpha_postings;
}

double WorkloadStats::PercentileWallUs(double q) const {
  if (wall_us.empty()) return 0.0;
  std::vector<double> sorted = wall_us;
  std::sort(sorted.begin(), sorted.end());
  // Nearest-rank: the smallest sample with cumulative frequency >= q.
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

WorkloadStats RunWorkload(const KspDatabase& db, Algo algo,
                          const std::vector<KspQuery>& queries, uint32_t k) {
  QueryExecutor executor(&db);
  if (g_metrics != nullptr) executor.set_metrics(g_metrics);
  // Phase breakdown needs the (cheap, aggregate-only) trace on the query
  // path; keep the path trace-free unless an output asked for it.
  QueryTrace trace;
  trace.set_record_spans(false);
  if (!g_json_out.empty() || g_metrics != nullptr) {
    executor.set_trace(&trace);
  }

  auto run_pass = [&]() {
    WorkloadStats out;
    out.wall_us.reserve(queries.size());
    for (const KspQuery& query : queries) {
      KspQuery q = query;
      if (k > 0) q.k = k;
      QueryStats stats;
      auto result = executor.Execute(algo, q, &stats);
      KSP_CHECK(result.ok()) << result.status().ToString();
      out.sum.Accumulate(stats);
      out.wall_us.push_back(stats.total_ms * 1000.0);
      if (executor.trace() != nullptr) {
        // The executor clears the trace per query, so fold now.
        for (size_t p = 0; p < kNumTracePhases; ++p) {
          out.phase_exclusive_us[p] += static_cast<double>(
              trace.PhaseExclusiveUs(static_cast<TracePhase>(p)));
        }
      }
      if (!stats.completed) ++out.timed_out;
      ++out.num_queries;
    }
    return out;
  };

  for (size_t w = 0; w < g_env.warmup; ++w) run_pass();
  std::vector<WorkloadStats> passes;
  passes.reserve(g_env.repeat);
  for (size_t r = 0; r < g_env.repeat; ++r) passes.push_back(run_pass());
  // Median-of-repeats by total wall time: robust against one-off stalls
  // without averaging away the distribution shape within the pass.
  std::sort(passes.begin(), passes.end(),
            [](const WorkloadStats& a, const WorkloadStats& b) {
              return a.sum.total_ms < b.sum.total_ms;
            });
  return std::move(passes[(passes.size() - 1) / 2]);
}

std::vector<KspResult> RunWorkloadCollect(
    const KspDatabase& db, Algo algo, const std::vector<KspQuery>& queries,
    uint32_t k) {
  std::vector<KspResult> results;
  results.reserve(queries.size());
  QueryExecutor executor(&db);
  if (g_metrics != nullptr) executor.set_metrics(g_metrics);
  for (const KspQuery& query : queries) {
    KspQuery q = query;
    if (k > 0) q.k = k;
    auto result = executor.Execute(algo, q);
    KSP_CHECK(result.ok()) << result.status().ToString();
    results.push_back(std::move(*result));
  }
  return results;
}

void PrintStatsHeader() {
  std::printf(
      "%-18s %-4s %12s %12s %12s %10s %10s %8s\n", "config", "algo",
      "runtime_ms", "semantic_ms", "other_ms", "tqsp_cnt", "rtree_node",
      "timeout");
}

namespace {
void AppendJsonRow(const char* config, Algo algo,
                   const WorkloadStats& stats) {
  char buf[256];
  std::string row = "    {\"config\": \"" + JsonEscape(config) +
                    "\", \"algo\": \"" + AlgoName(algo) + "\",";
  std::snprintf(buf, sizeof(buf),
                " \"queries\": %zu, \"timed_out\": %zu,"
                " \"mean_wall_us\": %.1f, \"median_wall_us\": %.1f,"
                " \"p95_wall_us\": %.1f,",
                stats.num_queries, stats.timed_out,
                stats.AvgTotalMs() * 1000.0, stats.MedianWallUs(),
                stats.P95WallUs());
  row += buf;
  row += " \"phase_exclusive_us\": {";
  for (size_t p = 0; p < kNumTracePhases; ++p) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.0f", p == 0 ? "" : ", ",
                  TracePhaseName(static_cast<TracePhase>(p)),
                  stats.phase_exclusive_us[p]);
    row += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "}, \"counters\": {\"tqsp_computations\": %llu,"
                " \"rtree_nodes_accessed\": %llu,"
                " \"vertices_visited\": %llu},",
                static_cast<unsigned long long>(stats.sum.tqsp_computations),
                static_cast<unsigned long long>(
                    stats.sum.rtree_nodes_accessed),
                static_cast<unsigned long long>(stats.sum.vertices_visited));
  row += buf;
  const auto rate = [](uint64_t hits, uint64_t misses) {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(total);
  };
  std::snprintf(
      buf, sizeof(buf),
      " \"cache\": {\"dg_hits\": %llu, \"dg_misses\": %llu,"
      " \"dg_hit_rate\": %.4f, \"result_hits\": %llu,"
      " \"result_misses\": %llu, \"result_hit_rate\": %.4f,"
      " \"evictions\": %llu},",
      static_cast<unsigned long long>(stats.sum.dg_cache_hits),
      static_cast<unsigned long long>(stats.sum.dg_cache_misses),
      rate(stats.sum.dg_cache_hits, stats.sum.dg_cache_misses),
      static_cast<unsigned long long>(stats.sum.result_cache_hits),
      static_cast<unsigned long long>(stats.sum.result_cache_misses),
      rate(stats.sum.result_cache_hits, stats.sum.result_cache_misses),
      static_cast<unsigned long long>(stats.sum.cache_evictions));
  row += buf;
  std::snprintf(
      buf, sizeof(buf),
      " \"backend\": \"%s\", \"bufferpool\": {\"budget_bytes\": %llu,"
      " \"hits\": %llu, \"misses\": %llu, \"evictions\": %llu}",
      BackendName(g_row_backend),
      static_cast<unsigned long long>(g_row_bufferpool_budget),
      static_cast<unsigned long long>(stats.sum.bufferpool_hits),
      static_cast<unsigned long long>(stats.sum.bufferpool_misses),
      static_cast<unsigned long long>(stats.sum.bufferpool_evictions));
  row += buf;
  if (g_row_shard_count != 0) {
    const uint64_t dispatched =
        stats.sum.shards_visited + stats.sum.shards_pruned;
    std::snprintf(
        buf, sizeof(buf),
        ", \"shard\": {\"count\": %u, \"shards_visited\": %llu,"
        " \"shards_pruned\": %llu, \"prune_rate\": %.4f,"
        " \"build_s\": %.4f, \"alpha_bytes\": %llu,"
        " \"alpha_postings\": %llu}",
        g_row_shard_count,
        static_cast<unsigned long long>(stats.sum.shards_visited),
        static_cast<unsigned long long>(stats.sum.shards_pruned),
        dispatched == 0 ? 0.0
                        : static_cast<double>(stats.sum.shards_pruned) /
                              static_cast<double>(dispatched),
        g_row_shard_build_s,
        static_cast<unsigned long long>(g_row_shard_alpha_bytes),
        static_cast<unsigned long long>(g_row_shard_alpha_postings));
    row += buf;
  }
  row += "}";
  g_json_rows.push_back(std::move(row));
}
}  // namespace

void PrintStatsRow(const char* config, Algo algo,
                   const WorkloadStats& stats) {
  std::printf("%-18s %-4s %12.3f %12.3f %12.3f %10.1f %10.1f %5zu/%zu\n",
              config, AlgoName(algo), stats.AvgTotalMs(),
              stats.AvgSemanticMs(), stats.AvgOtherMs(), stats.AvgTqsp(),
              stats.AvgRtreeNodes(), stats.timed_out, stats.num_queries);
  if (!g_json_out.empty()) AppendJsonRow(config, algo, stats);
}

void PrintDatasetSummary(const char* label, const KnowledgeBase& kb) {
  std::printf(
      "dataset %-14s vertices=%u edges=%llu places=%u terms=%u "
      "kw_freq=%.2f\n",
      label, kb.num_vertices(),
      static_cast<unsigned long long>(kb.num_edges()), kb.num_places(),
      kb.num_terms(), kb.inverted_index().AveragePostingLength());
}

}  // namespace bench
}  // namespace ksp
