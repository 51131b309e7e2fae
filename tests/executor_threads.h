// Runs one query list on N threads with one QueryExecutor each over a
// shared database, the way the server's workers run queries. Shared by
// the concurrency suites (executor_concurrency_test, cache_equivalence_test).

#ifndef KSP_TESTS_EXECUTOR_THREADS_H_
#define KSP_TESTS_EXECUTOR_THREADS_H_

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "core/database.h"
#include "core/executor.h"

namespace ksp {

/// What RunOnThreads answered: results aligned with the queries, and the
/// QueryStats of every query summed.
struct ThreadedRun {
  std::vector<KspResult> results;
  QueryStats totals;
};

/// Answers `queries` with `algorithm` on `num_threads` threads. Each
/// thread owns one executor, attached to `registry` when one is given,
/// and takes the next unanswered query from a shared counter. A failed
/// query fails the calling test.
inline ThreadedRun RunOnThreads(const KspDatabase& db, KspAlgorithm algorithm,
                                const std::vector<KspQuery>& queries,
                                size_t num_threads,
                                MetricsRegistry* registry = nullptr) {
  ThreadedRun run;
  run.results.resize(queries.size());
  std::vector<QueryStats> sums(num_threads);
  std::vector<Status> errors(num_threads);
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      QueryExecutor executor(&db);
      executor.set_metrics(registry);
      for (size_t i = next++; i < queries.size(); i = next++) {
        QueryStats stats;
        auto result = executor.Execute(algorithm, queries[i], &stats);
        if (!result.ok()) {
          errors[t] = result.status();
          return;
        }
        run.results[i] = std::move(*result);
        sums[t].Accumulate(stats);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < num_threads; ++t) {
    EXPECT_TRUE(errors[t].ok())
        << KspAlgorithmName(algorithm) << " thread " << t << ": "
        << errors[t].ToString();
    run.totals.Accumulate(sums[t]);
  }
  return run;
}

}  // namespace ksp

#endif  // KSP_TESTS_EXECUTOR_THREADS_H_
