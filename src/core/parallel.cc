#include "core/parallel.h"

#include <utility>

#include "common/timer.h"

namespace ksp {

const char* KspAlgorithmName(KspAlgorithm algorithm) {
  switch (algorithm) {
    case KspAlgorithm::kBsp:
      return "BSP";
    case KspAlgorithm::kSpp:
      return "SPP";
    case KspAlgorithm::kSp:
      return "SP";
    case KspAlgorithm::kTa:
      return "TA";
    case KspAlgorithm::kKeywordOnly:
      return "KW";
  }
  return "?";
}

Result<KspResult> ExecuteWith(QueryExecutor* executor,
                              KspAlgorithm algorithm, const KspQuery& query,
                              QueryStats* stats) {
  switch (algorithm) {
    case KspAlgorithm::kBsp:
      return executor->ExecuteBsp(query, stats);
    case KspAlgorithm::kSpp:
      return executor->ExecuteSpp(query, stats);
    case KspAlgorithm::kSp:
      return executor->ExecuteSp(query, stats);
    case KspAlgorithm::kTa:
      return executor->ExecuteTa(query, stats);
    case KspAlgorithm::kKeywordOnly:
      return executor->ExecuteKeywordOnly(query, stats);
  }
  return Status::InvalidArgument("unknown algorithm");
}

QueryExecutorPool::QueryExecutorPool(const KspDatabase* db,
                                     size_t num_threads)
    : db_(db), workers_(num_threads == 0 ? 1 : num_threads) {
  for (Worker& worker : workers_) {
    worker.executor = std::make_unique<QueryExecutor>(db_);
    worker.registry = std::make_unique<MetricsRegistry>();
    worker.executor->set_metrics(worker.registry.get());
  }
  for (Worker& worker : workers_) {
    worker.thread = std::thread(&QueryExecutorPool::WorkerLoop, this,
                                &worker);
  }
}

QueryExecutorPool::~QueryExecutorPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (Worker& worker : workers_) worker.thread.join();
}

void QueryExecutorPool::WorkerLoop(Worker* worker) {
  uint64_t seen_generation = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
    }

    Timer wall;
    wall.Start();
    QueryStats local_sum;
    while (!failed_.load(std::memory_order_relaxed)) {
      const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= queries_->size()) break;
      QueryStats stats;
      auto result = ExecuteWith(worker->executor.get(), algorithm_,
                                (*queries_)[i], &stats);
      if (!result.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        if (first_error_.ok()) first_error_ = result.status();
        failed_.store(true, std::memory_order_relaxed);
        break;
      }
      (*results_)[i] = std::move(*result);
      local_sum.Accumulate(stats);
    }
    worker->sum = local_sum;
    worker->wall_ms = wall.ElapsedMillis();

    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--active_workers_ == 0) work_done_.notify_all();
    }
  }
}

Result<std::vector<KspResult>> QueryExecutorPool::Run(
    const std::vector<KspQuery>& queries, KspAlgorithm algorithm,
    BatchRunStats* stats) {
  std::vector<KspResult> results(queries.size());
  if (queries.empty()) {
    if (stats != nullptr) *stats = BatchRunStats{};
    return results;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    queries_ = &queries;
    results_ = &results;
    algorithm_ = algorithm;
    next_.store(0, std::memory_order_relaxed);
    failed_.store(false, std::memory_order_relaxed);
    first_error_ = Status::OK();
    active_workers_ = workers_.size();
    ++generation_;
  }
  work_ready_.notify_all();

  {
    std::unique_lock<std::mutex> lock(mu_);
    work_done_.wait(lock, [&] { return active_workers_ == 0; });
    queries_ = nullptr;
    results_ = nullptr;
    if (!first_error_.ok()) return first_error_;
  }

  if (stats != nullptr) {
    *stats = BatchRunStats{};
    stats->worker_wall_ms.reserve(workers_.size());
    for (const Worker& worker : workers_) {
      stats->totals.Accumulate(worker.sum);
      stats->worker_wall_ms.push_back(worker.wall_ms);
      stats->metrics.MergeFrom(worker.registry->Snapshot());
    }
  }
  return results;
}

Result<std::vector<KspResult>> RunQueryBatch(
    const KspDatabase& db, const std::vector<KspQuery>& queries,
    const BatchRunOptions& options, BatchRunStats* stats) {
  if (!db.has_rtree()) {
    return Status::InvalidArgument(
        "RunQueryBatch requires a prepared database (BuildRTree / "
        "PrepareAll / LoadIndexes)");
  }
  std::vector<KspResult> results(queries.size());
  if (queries.empty()) {
    if (stats != nullptr) *stats = BatchRunStats{};
    return results;
  }

  if (options.num_threads <= 1) {
    Timer wall;
    wall.Start();
    MetricsRegistry registry;
    QueryExecutor executor(&db);
    executor.set_metrics(&registry);
    QueryStats sum;
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryStats query_stats;
      KSP_ASSIGN_OR_RETURN(results[i],
                           ExecuteWith(&executor, options.algorithm,
                                       queries[i], &query_stats));
      sum.Accumulate(query_stats);
    }
    if (stats != nullptr) {
      *stats = BatchRunStats{};
      stats->totals = sum;
      stats->worker_wall_ms.push_back(wall.ElapsedMillis());
      stats->metrics = registry.Snapshot();
    }
    return results;
  }

  QueryExecutorPool pool(&db, options.num_threads);
  return pool.Run(queries, options.algorithm, stats);
}

}  // namespace ksp
