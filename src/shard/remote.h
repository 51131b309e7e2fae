#ifndef KSP_SHARD_REMOTE_H_
#define KSP_SHARD_REMOTE_H_

#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/executor.h"
#include "core/query.h"
#include "core/semantic_place.h"
#include "core/stats.h"
#include "shard/sharded_database.h"

namespace ksp {

/// The shard boundary of DESIGN.md §12: a narrow request/response message
/// pair plus a transport interface. The scatter-gather executor speaks
/// ONLY this vocabulary to its shards. The one transport is in-process.

/// One shard's slice of a scatter-gather query. Keywords travel as
/// strings and are resolved against the vocabulary of whichever index
/// generation answers — the same contract as the serving protocol's
/// QueryRequest, and the property that makes hot swap safe under
/// sharding.
struct ShardQueryRequest {
  KspAlgorithm algorithm = KspAlgorithm::kSp;
  Point location;
  std::vector<std::string> keywords;
  uint32_t k = 1;
  /// Global θ at dispatch time (+inf before the merge heap fills). A
  /// transport that cannot share memory prunes against this snapshot;
  /// the in-process one re-reads the live θ instead (see ShardChannel).
  double theta_seed = std::numeric_limits<double>::infinity();
};

/// A shard's answer: its local top-k (full result entries, trees
/// included) plus the stats of the shard-local run.
struct ShardQueryResponse {
  StatusCode code = StatusCode::kOk;
  std::string message;
  /// Index generation that answered (0 for in-process builds).
  uint64_t generation = 0;
  KspResult result;
  QueryStats stats;
};

/// Transport seam: one channel per shard. Query() is synchronous and a
/// channel serves one in-flight query at a time (the scatter-gather
/// executor owns its channels; give each thread its own executor, as
/// with QueryExecutor).
class ShardChannel {
 public:
  virtual ~ShardChannel() = default;

  /// `live_theta` is the scatter-gather merge's shared atomic θ, which
  /// ShardedExecutor always passes; a co-located shard reads it
  /// throughout execution for tighter pruning. A transport that cannot
  /// share memory would prune against the request's theta_seed instead —
  /// both are ≥ the final global θ at all times, so either choice is
  /// exact and only prune counts differ.
  virtual Status Query(const ShardQueryRequest& request,
                       const std::atomic<double>* live_theta,
                       ShardQueryResponse* response) = 0;
};

/// Shard = thread: executes against a shard KspDatabase in this process,
/// reading the live shared θ (a null `live_theta` prunes against the
/// shard's local top-k alone).
class InProcessShardChannel : public ShardChannel {
 public:
  explicit InProcessShardChannel(const KspDatabase* db);

  Status Query(const ShardQueryRequest& request,
               const std::atomic<double>* live_theta,
               ShardQueryResponse* response) override;

 private:
  const KspDatabase* db_;
  QueryExecutor executor_;
};

/// One channel per shard slot of `db` (nullptr for empty tiles).
std::vector<std::unique_ptr<ShardChannel>> MakeInProcessChannels(
    const ShardedKspDatabase& db);

}  // namespace ksp

#endif  // KSP_SHARD_REMOTE_H_
