#ifndef KSP_CORE_PARALLEL_H_
#define KSP_CORE_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "core/database.h"
#include "core/executor.h"

namespace ksp {

/// Dispatches one query on one executor.
Result<KspResult> ExecuteWith(QueryExecutor* executor,
                              KspAlgorithm algorithm, const KspQuery& query,
                              QueryStats* stats = nullptr);

struct BatchRunOptions {
  KspAlgorithm algorithm = KspAlgorithm::kSp;
  /// Worker threads; each runs its own QueryExecutor against the shared
  /// database. 1 executes inline on the calling thread.
  size_t num_threads = 1;
};

/// Per-batch aggregate instrumentation. Per-query counters are summed
/// worker-locally and merged once per batch, so accumulation never
/// contends across threads.
struct BatchRunStats {
  /// Sum of every query's QueryStats (QueryStats::Accumulate semantics).
  QueryStats totals;
  /// Wall-clock spent inside each worker's query loop, indexed by worker.
  /// Single-threaded runs report one entry. The spread between entries
  /// shows batch load imbalance.
  std::vector<double> worker_wall_ms;
  /// ksp_* query metrics merged across the pool's per-worker registries
  /// (DESIGN.md §7). Pool registries are cumulative over the pool's
  /// lifetime, so counters cover every batch run so far, not just this
  /// one; transient RunQueryBatch pools cover exactly one batch.
  MetricsSnapshot metrics;
};

/// A persistent pool of worker threads, each owning one QueryExecutor
/// over the same shared KspDatabase — the serving-path replacement for
/// the old clone-an-engine-per-thread pattern. Workers are started once
/// and reused across Run() calls; executor scratch (BFS epochs) stays
/// warm between batches.
///
/// The database must be prepared before Run() (Execute* errors
/// otherwise). Run() is not itself thread-safe: one batch at a time.
class QueryExecutorPool {
 public:
  QueryExecutorPool(const KspDatabase* db, size_t num_threads);
  ~QueryExecutorPool();

  QueryExecutorPool(const QueryExecutorPool&) = delete;
  QueryExecutorPool& operator=(const QueryExecutorPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Answers `queries` across the pool. Results are positionally aligned
  /// with `queries`; fails fast on the first query error (remaining
  /// queries are skipped). `stats`, if given, receives merged per-query
  /// totals and per-worker wall-clock.
  Result<std::vector<KspResult>> Run(const std::vector<KspQuery>& queries,
                                     KspAlgorithm algorithm,
                                     BatchRunStats* stats = nullptr);

 private:
  struct Worker {
    std::thread thread;
    std::unique_ptr<QueryExecutor> executor;
    /// Worker-local registry (unique_ptr: MetricsRegistry is pinned, and
    /// Worker lives in a vector). Merged into BatchRunStats::metrics.
    std::unique_ptr<MetricsRegistry> registry;
    QueryStats sum;          // Merged into the batch total by Run().
    double wall_ms = 0.0;    // Time inside this worker's query loop.
  };

  void WorkerLoop(Worker* worker);

  const KspDatabase* db_;
  std::vector<Worker> workers_;

  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  /// Incremented per batch; workers run when their seen count lags.
  uint64_t generation_ = 0;
  size_t active_workers_ = 0;
  bool shutdown_ = false;

  /// Current batch (valid while active_workers_ > 0).
  const std::vector<KspQuery>* queries_ = nullptr;
  std::vector<KspResult>* results_ = nullptr;
  KspAlgorithm algorithm_ = KspAlgorithm::kSp;
  std::atomic<size_t> next_{0};
  std::atomic<bool> failed_{false};
  Status first_error_;
};

/// Answers a batch of queries against one shared prepared database,
/// optionally across threads (a transient QueryExecutorPool for
/// num_threads > 1; construct a pool directly to amortize thread startup
/// across batches). Results are positionally aligned with `queries`.
/// Fails fast on the first query error.
Result<std::vector<KspResult>> RunQueryBatch(
    const KspDatabase& db, const std::vector<KspQuery>& queries,
    const BatchRunOptions& options, BatchRunStats* stats = nullptr);

}  // namespace ksp

#endif  // KSP_CORE_PARALLEL_H_
