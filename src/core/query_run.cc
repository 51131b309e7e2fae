// What every QueryExecutor::Execute* shares: the algorithm switch
// (Execute), the prologue (BeginRun) and epilogue (FinishRun) of all
// five, the per-candidate stop test of their scan loops, and the
// per-place step of BSP, SPP and SP (VisitPlace).
// This code is kept out of executor.cc on purpose: compiled in one file
// with ComputeTqsp, it changed GCC's inlining choices inside that BFS,
// and the disk backend ran about 5% slower.

#include <limits>

#include "core/executor.h"

namespace ksp {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Result<KspResult> QueryExecutor::Execute(KspAlgorithm algorithm,
                                         const KspQuery& query,
                                         QueryStats* stats) {
  switch (algorithm) {
    case KspAlgorithm::kBsp:
      return ExecuteBsp(query, stats);
    case KspAlgorithm::kSpp:
      return ExecuteSpp(query, stats);
    case KspAlgorithm::kSp:
      return ExecuteSp(query, stats);
    case KspAlgorithm::kTa:
      return ExecuteTa(query, stats);
    case KspAlgorithm::kKeywordOnly:
      return ExecuteKeywordOnly(query, stats);
  }
  return Status::InvalidArgument("unknown algorithm");
}

Status QueryExecutor::BeginRun(const KspQuery& query, const PlaceScan* scan,
                               QueryRun* run) {
  KSP_RETURN_NOT_OK(CheckPrepared());
  if (scan != nullptr && scan->alpha_ordered &&
      db_->alpha_index() == nullptr) {
    return Status::InvalidArgument(
        "SP requires BuildAlphaIndex() when alpha pruning is enabled");
  }
  if (scan != nullptr && scan->use_rule1 &&
      db_->reachability_index() == nullptr) {
    return Status::InvalidArgument(
        "unqualified-place pruning (Rule 1) requires "
        "BuildReachabilityIndex()");
  }
  KSP_RETURN_NOT_OK(CheckQueryLocation(query.location));
  run->total_timer.Start();
  QueryStats* st = run->st;
  *st = QueryStats();
  // Clear the sticky interrupt of a previous (cancelled) run, snapshot the
  // semantic-cache epoch every cache operation of this query is tagged
  // with (see SemanticQueryCache), and start a fresh trace.
  interrupt_status_ = Status::OK();
  SemanticQueryCache* cache = db_->semantic_cache();
  cache_epoch_ = cache != nullptr ? cache->epoch() : 0;
  run->trace = active_trace();
  if (run->trace != nullptr) run->trace->Clear();
  graph_cursor_.ResetIo();

  // Full-query result cache (DESIGN.md §9), keyed by candidate order,
  // rules and α. EXPLAIN always executes the uncached path — a cached
  // answer has no candidate rows. Under a shared scatter-gather θ
  // (§12) the result layer is bypassed both ways: the key has no θ
  // component, so a θ-truncated shard answer could neither be stored nor
  // served exactly. The per-keyword dg layer stays on — distances are
  // exact regardless of θ.
  if (scan != nullptr && cache != nullptr && !explain_on() &&
      shared_theta_ == nullptr) {
    run->result_key = SemanticQueryCache::MakeResultKey(
        query, scan->alpha_ordered ? 'A' : 'S', scan->use_rule1,
        scan->use_rule2,
        scan->alpha_ordered ? db_->alpha_index()->alpha() : 0,
        db_->options().ranking);
    KspResult cached;
    bool hit;
    {
      TraceSpan span(run->trace, TracePhase::kCacheLookup);
      hit = cache->LookupResult(run->result_key, cache_epoch_, &cached);
    }
    if (hit) {
      ++st->result_cache_hits;
      st->total_ms = run->total_timer.ElapsedMillis();
      RecordQueryMetrics(*st);
      run->cached = std::move(cached);
      return Status::OK();
    }
    ++st->result_cache_misses;
  }

  TraceSpan span(run->trace, TracePhase::kDocFetch);
  KSP_RETURN_NOT_OK(PrepareContext(query, &run->ctx));
  FoldIo(run->ctx.io, st);
  return Status::OK();
}

Result<KspResult> QueryExecutor::FinishRun(QueryRun* run, KspResult result) {
  QueryStats* st = run->st;
  st->semantic_ms = run->semantic_seconds * 1e3;
  st->total_ms = run->total_timer.ElapsedMillis();
  // Interrupted (deadline/cancel): the error status carries the verdict,
  // the partial QueryStats stay observable, and the partial top-k is
  // never presented as a result.
  if (!interrupt_status_.ok()) {
    st->completed = false;
    if (metrics_.cancellations != nullptr) {
      metrics_.cancellations->Increment();
    }
    RecordQueryMetrics(*st);
    return interrupt_status_;
  }
  // Only completed runs are cached: a timeout's partial top-k is not the
  // answer.
  if (!run->result_key.empty() && st->completed) {
    st->cache_evictions += db_->semantic_cache()->InsertResult(
        run->result_key, cache_epoch_, result);
  }
  RecordQueryMetrics(*st);
  return result;
}

bool QueryExecutor::ScanStopped(QueryRun* run) {
  if (run->total_timer.ElapsedMillis() > db_->options().time_limit_ms) {
    run->st->completed = false;
    ExplainTermination("timeout");
    return true;
  }
  if (CheckInterrupt()) {
    ExplainTermination("cancelled");
    return true;
  }
  return false;
}

Status QueryExecutor::VisitPlace(QueryRun* run, const PlaceScan& scan,
                                 PlaceId place, double spatial, double theta,
                                 double score_bound, TopKHeap* heap) {
  const RankingFunction& ranking = db_->options().ranking;
  QueryStats* st = run->st;
  QueryTrace* trace = run->trace;
  const VertexId root = db_->kb().place_vertex(place);

  ExplainCandidate row;
  row.place = place;
  row.spatial_distance = spatial;
  row.threshold = theta;
  row.score_bound = score_bound;

  if (scan.use_rule1) {
    bool unqualified;
    {
      TraceSpan span(trace, TracePhase::kRule1Prune);
      unqualified = IsUnqualifiedPlace(root, run->ctx, st);
    }
    if (unqualified) {
      ++st->pruned_unqualified;  // Pruning Rule 1.
      row.looseness = kInf;
      row.outcome = CandidateOutcome::kPrunedRule1;
      ExplainCandidateRow(row);
      return Status::OK();
    }
  }

  const double looseness_threshold =
      scan.use_rule2 ? ranking.LoosenessThreshold(theta, spatial) : kInf;

  // dg-cache fast path: when every keyword distance is cached, the
  // prune/reject decision replays exactly and the BFS is skipped (kMiss
  // covers would-be top-k entries, which need their tree). Disabled under
  // EXPLAIN to keep candidate rows identical to the uncached walk.
  if (db_->semantic_cache() != nullptr && !explain_on()) {
    CachedTqsp outcome;
    {
      TraceSpan span(trace, TracePhase::kCacheLookup);
      outcome = TryCachedTqsp(root, place, run->ctx, looseness_threshold,
                              scan.use_rule2, *heap, spatial);
    }
    if (outcome != CachedTqsp::kMiss) {
      ++st->dg_cache_hits;
      if (outcome == CachedTqsp::kPrunedRule2) {
        ++st->pruned_dynamic_bound;
        if (trace != nullptr) trace->RecordEvent(TracePhase::kRule2Prune);
      }
      return Status::OK();
    }
    ++st->dg_cache_misses;
  }

  ++st->tqsp_computations;
  const uint64_t rule2_before = st->pruned_dynamic_bound;
  const uint64_t visited_before = st->vertices_visited;
  SemanticPlaceTree tree;
  tree.place = place;
  double looseness;
  {
    ScopedTimer semantic_timer(&run->semantic_seconds);
    TraceSpan span(trace, TracePhase::kTqspCompute);
    looseness = ComputeTqsp(root, run->ctx, looseness_threshold,
                            scan.use_rule2, &tree, st);
    span.AddItems(st->vertices_visited - visited_before);
  }
  KSP_RETURN_NOT_OK(graph_cursor_.status);
  if (!interrupt_status_.ok()) {
    // The BFS was cut short: its +inf looseness proves nothing, so no
    // prune/unqualified accounting — the caller unwinds.
    ExplainTermination("cancelled");
    return Status::OK();
  }
  if (looseness == kInf) {  // Unqualified or Rule-2 pruned.
    const bool rule2 = st->pruned_dynamic_bound > rule2_before;
    if (rule2 && trace != nullptr) {
      trace->RecordEvent(TracePhase::kRule2Prune);
    }
    row.looseness = rule2 ? looseness_threshold : kInf;
    row.outcome = rule2 ? CandidateOutcome::kPrunedRule2
                        : CandidateOutcome::kUnqualified;
    ExplainCandidateRow(row);
    return Status::OK();
  }

  KspResultEntry entry;
  entry.place = place;
  entry.looseness = looseness;
  entry.spatial_distance = spatial;
  entry.score = ranking.Score(looseness, spatial);
  row.looseness = looseness;
  row.score = entry.score;
  row.outcome = CandidateOutcome::kComputed;
  ExplainCandidateRow(row);
  entry.tree = std::move(tree);
  heap->Add(std::move(entry));
  return Status::OK();
}

}  // namespace ksp
