#ifndef KSP_SHARD_SHARDED_EXECUTOR_H_
#define KSP_SHARD_SHARDED_EXECUTOR_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/metrics.h"
#include "common/result.h"
#include "core/query.h"
#include "core/stats.h"
#include "core/trace.h"
#include "shard/remote.h"
#include "shard/sharded_database.h"

namespace ksp {

/// Exact scatter-gather top-k over a ShardedKspDatabase (DESIGN.md §12).
///
/// Shards are visited in ascending MinDist(q, shard MBR) order. A global
/// TopKHeap merges shard-local top-ks; its threshold is published to a
/// shared atomic θ that (a) co-located shards re-read during execution
/// via QueryExecutor::set_shared_theta, and (b) gates whole shards: when
/// ranking.MinScoreGivenSpatialDistance(mindist) ≥ θ, that shard — and,
/// by mindist order and the bound's monotonicity, every later shard — is
/// skipped entirely. This is the paper's Rule 2 lifted one level: the
/// shard MBR lower-bounds S(q,p), hence f(q,p), for every place inside.
///
/// Exactness: every merged entry comes from exactly one shard, shard
/// θ_eff is always ≥ the final global θ (both heap threshold and shared
/// θ decrease monotonically), so a place missing from a shard's local
/// top-k has f ≥ θ_eff ≥ θ_final and cannot belong to the global top-k;
/// ties break on (score, place) exactly as TopKHeap does unsharded. The
/// shard-equivalence suite pins byte-identical results at every shard
/// count, on both backends, against the 210-query oracle workload.
///
/// Not thread-safe (owns per-shard channels with executor scratch): one
/// ShardedExecutor per thread, like QueryExecutor.
class ShardedExecutor {
 public:
  /// In-process execution (shard = thread-local subquery).
  explicit ShardedExecutor(const ShardedKspDatabase* db);
  /// Custom channels (e.g. an instrumented in-process one): one per
  /// shard slot, null for empty tiles (see MakeInProcessChannels).
  ShardedExecutor(const ShardedKspDatabase* db,
                  std::vector<std::unique_ptr<ShardChannel>> channels);

  ShardedExecutor(const ShardedExecutor&) = delete;
  ShardedExecutor& operator=(const ShardedExecutor&) = delete;

  const ShardedKspDatabase& db() const { return *db_; }

  /// Per-query trace sink: shard visits appear as `shard_dispatch`
  /// spans (items = entries returned). Same contract as
  /// QueryExecutor::set_trace.
  void set_trace(QueryTrace* trace) { trace_ = trace; }

  /// ksp_shard_* metrics: queries, shards visited/pruned, latency.
  void set_metrics(MetricsRegistry* registry);

  /// Deadline/cancel polled at shard-dispatch boundaries (coarser than
  /// the per-candidate polling inside a single executor, but a shard
  /// visit is the unit of work here). Same contract as
  /// QueryExecutor::set_cancellation.
  void set_cancellation(CancellationToken* token) { cancel_ = token; }

  /// Scatter-gather evaluation. The TermId overload requires ids from
  /// this KB's vocabulary (kInvalidTerm ⇒ the empty result, exactly as
  /// unsharded); the string overload resolves per shard generation, the
  /// serving-tier contract. Both refuse a non-finite location with
  /// InvalidArgument before any shard is visited, as QueryExecutor does.
  Result<KspResult> Execute(KspAlgorithm algorithm, const KspQuery& query,
                            QueryStats* stats = nullptr);
  Result<KspResult> Execute(KspAlgorithm algorithm, const Point& location,
                            const std::vector<std::string>& keywords,
                            uint32_t k, QueryStats* stats = nullptr);

 private:
  struct MetricsHandles {
    MetricsRegistry* registry = nullptr;
    Counter* queries = nullptr;
    Counter* shards_visited = nullptr;
    Counter* shards_pruned = nullptr;
    Histogram* latency_ms = nullptr;
  };

  Result<KspResult> ExecuteScatterGather(
      KspAlgorithm algorithm, const Point& location,
      const std::vector<std::string>& keywords, uint32_t k,
      QueryStats* stats);

  const ShardedKspDatabase* db_;
  std::vector<std::unique_ptr<ShardChannel>> channels_;
  QueryTrace* trace_ = nullptr;
  CancellationToken* cancel_ = nullptr;
  MetricsHandles metrics_;
};

}  // namespace ksp

#endif  // KSP_SHARD_SHARDED_EXECUTOR_H_
