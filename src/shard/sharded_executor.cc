#include "shard/sharded_executor.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "core/executor.h"

namespace ksp {

ShardedExecutor::ShardedExecutor(const ShardedKspDatabase* db)
    : ShardedExecutor(db, MakeInProcessChannels(*db)) {}

ShardedExecutor::ShardedExecutor(
    const ShardedKspDatabase* db,
    std::vector<std::unique_ptr<ShardChannel>> channels)
    : db_(db), channels_(std::move(channels)) {
  KSP_CHECK(db_ != nullptr);
  KSP_CHECK(channels_.size() == db_->num_shards());
}

void ShardedExecutor::set_metrics(MetricsRegistry* registry) {
  metrics_ = MetricsHandles();
  metrics_.registry = registry;
  if (registry == nullptr) return;
  metrics_.queries = registry->GetCounter("ksp_shard_queries_total");
  metrics_.shards_visited =
      registry->GetCounter("ksp_shard_shards_visited_total");
  metrics_.shards_pruned =
      registry->GetCounter("ksp_shard_shards_pruned_total");
  metrics_.latency_ms =
      registry->GetHistogram("ksp_shard_query_latency_ms");
}

Result<KspResult> ShardedExecutor::Execute(KspAlgorithm algorithm,
                                           const KspQuery& query,
                                           QueryStats* stats) {
  // Checked before any shard sees the query: at an infinite location
  // shard-level Rule 2 would prune every shard and answer an empty OK.
  KSP_RETURN_NOT_OK(CheckQueryLocation(query.location));
  // The shard boundary speaks keyword strings; TermIds map back through
  // the (bijective) vocabulary. An unresolvable keyword makes the query
  // unanswerable on every shard — the empty result, exactly as the
  // unsharded executor reports it.
  const Vocabulary& vocabulary = db_->kb().vocabulary();
  std::vector<std::string> keywords;
  keywords.reserve(query.keywords.size());
  bool answerable = true;
  for (TermId t : query.keywords) {
    if (t >= vocabulary.size()) {
      answerable = false;
      break;
    }
    keywords.push_back(vocabulary.Term(t));
  }
  if (!answerable) {
    QueryStats local_stats;
    QueryStats* st = stats != nullptr ? stats : &local_stats;
    *st = QueryStats();
    if (metrics_.registry != nullptr) {
      metrics_.queries->Increment();
      metrics_.latency_ms->Observe(0.0);
    }
    return KspResult();
  }
  return ExecuteScatterGather(algorithm, query.location, keywords, query.k,
                              stats);
}

Result<KspResult> ShardedExecutor::Execute(
    KspAlgorithm algorithm, const Point& location,
    const std::vector<std::string>& keywords, uint32_t k,
    QueryStats* stats) {
  KSP_RETURN_NOT_OK(CheckQueryLocation(location));
  return ExecuteScatterGather(algorithm, location, keywords, k, stats);
}

Result<KspResult> ShardedExecutor::ExecuteScatterGather(
    KspAlgorithm algorithm, const Point& location,
    const std::vector<std::string>& keywords, uint32_t k,
    QueryStats* stats) {
  Timer total_timer;
  total_timer.Start();
  QueryStats local_stats;
  QueryStats* st = stats != nullptr ? stats : &local_stats;
  *st = QueryStats();
  QueryTrace* trace = trace_;
  if (trace != nullptr) trace->Clear();

  // Visit order: ascending (mindist to the shard MBR, shard id). The
  // tiebreak keeps the order — and hence the prune counts — fully
  // deterministic.
  struct Visit {
    double mindist;
    uint32_t shard;
  };
  std::vector<Visit> order;
  order.reserve(db_->num_shards());
  for (uint32_t i = 0; i < db_->num_shards(); ++i) {
    if (channels_[i] == nullptr) continue;  // Empty tile.
    order.push_back(Visit{MinDist(location, db_->shard_mbr(i)), i});
  }
  std::sort(order.begin(), order.end(), [](const Visit& a, const Visit& b) {
    if (a.mindist != b.mindist) return a.mindist < b.mindist;
    return a.shard < b.shard;
  });

  const RankingFunction& ranking = db_->options().ranking;
  TopKHeap heap(k);
  // The shared global θ of §12: seeded from the (empty) merge heap,
  // re-published after every shard merge; every channel gets it live
  // and its dispatch-time snapshot as the request's theta_seed.
  std::atomic<double> theta{heap.Threshold()};

  ShardQueryRequest request;
  request.algorithm = algorithm;
  request.location = location;
  request.keywords = keywords;
  request.k = k;

  uint64_t generation = 0;
  bool generation_seen = false;
  Status interrupted = Status::OK();
  for (size_t v = 0; v < order.size(); ++v) {
    // Shard-level Rule 2: MinDist lower-bounds S(q,p) for every place of
    // the shard, so MinScore(mindist) lower-bounds f. Once it reaches θ
    // this shard — and by mindist order every later one — cannot
    // contribute, mirroring the algorithms' own `>=` prune boundary.
    const double bound = ranking.MinScoreGivenSpatialDistance(
        order[v].mindist);
    if (bound >= theta.load(std::memory_order_acquire)) {
      st->shards_pruned += order.size() - v;
      break;
    }
    if (cancel_ != nullptr) {
      interrupted = cancel_->Check();
      if (!interrupted.ok()) break;
    }

    request.theta_seed = theta.load(std::memory_order_acquire);
    ShardQueryResponse response;
    {
      TraceSpan span(trace, TracePhase::kShardDispatch);
      KSP_RETURN_NOT_OK(
          channels_[order[v].shard]->Query(request, &theta, &response));
      span.AddItems(response.result.entries.size());
    }
    if (response.code != StatusCode::kOk) {
      return Status(response.code, response.message);
    }
    // One query must be answered by one index generation across every
    // shard; a mix would merge rankings over different indexes.
    if (!generation_seen) {
      generation = response.generation;
      generation_seen = true;
    } else if (response.generation != generation) {
      return Status::Internal(
          "shard responses mix index generations " +
          std::to_string(generation) + " and " +
          std::to_string(response.generation));
    }

    ++st->shards_visited;
    st->Accumulate(response.stats);
    for (KspResultEntry& entry : response.result.entries) {
      heap.Add(std::move(entry));
    }
    theta.store(heap.Threshold(), std::memory_order_release);
  }

  // Accumulate summed the per-shard wall clocks; the query's total is
  // the scatter-gather wall time.
  st->total_ms = total_timer.ElapsedMillis();
  if (metrics_.registry != nullptr) {
    metrics_.queries->Increment();
    metrics_.shards_visited->Increment(st->shards_visited);
    metrics_.shards_pruned->Increment(st->shards_pruned);
    metrics_.latency_ms->Observe(st->total_ms);
  }
  if (!interrupted.ok()) {
    st->completed = false;
    return interrupted;
  }
  return std::move(heap).Finish();
}

}  // namespace ksp
