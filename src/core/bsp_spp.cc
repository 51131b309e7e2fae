// BSP (Algorithm 1) and SPP (§4): spatial-first kSP evaluation. Both walk
// the incremental-NN stream and hand each place to the shared per-place
// step (QueryExecutor::VisitPlace) — SPP is BSP plus Pruning Rule 1
// (unqualified place pruning via the reachability oracle) and Pruning
// Rule 2 (dynamic looseness bound inside TQSP construction).

#include "core/executor.h"

namespace ksp {

Result<KspResult> QueryExecutor::ExecuteBsp(const KspQuery& query,
                                            QueryStats* stats) {
  return ExecuteSpatialFirst(query, stats, /*use_rule1=*/false,
                             /*use_rule2=*/false);
}

Result<KspResult> QueryExecutor::ExecuteSpp(const KspQuery& query,
                                            QueryStats* stats) {
  const KspOptions& options = db_->options();
  return ExecuteSpatialFirst(query, stats, options.use_unqualified_pruning,
                             options.use_dynamic_bound_pruning);
}

Result<KspResult> QueryExecutor::ExecuteSpatialFirst(const KspQuery& query,
                                                     QueryStats* stats,
                                                     bool use_rule1,
                                                     bool use_rule2) {
  const PlaceScan scan{/*alpha_ordered=*/false, use_rule1, use_rule2};
  QueryRun run(stats);
  KSP_RETURN_NOT_OK(BeginRun(query, &scan, &run));
  if (run.cached) return std::move(*run.cached);

  QueryStats* st = run.st;
  TopKHeap heap(query.k);
  if (!run.ctx.answerable) {
    ExplainTermination("unanswerable");
  } else {
    ExplainTermination("exhausted");
    const RankingFunction& ranking = db_->options().ranking;
    NearestIterator iterator(db_->spatial_accessor(), query.location);
    NearestIterator::Item item;
    PageIoCounters folded_nn_io;
    for (;;) {
      bool has_item;
      {
        TraceSpan span(run.trace, TracePhase::kRtreeNn);
        has_item = iterator.Next(&item);
        span.AddItems(1);
        FoldIoDelta(iterator.io(), &folded_nn_io, st);
      }
      if (!has_item || ScanStopped(&run)) break;
      const double theta = EffectiveThreshold(heap);
      // Termination (Algorithm 1, line 7): entries arrive in ascending
      // spatial distance and f(L, S) >= MinScore(S) for L >= 1.
      const double score_bound =
          ranking.MinScoreGivenSpatialDistance(item.distance);
      if (score_bound >= theta) {
        ExplainTermination("threshold");
        break;
      }
      if (item.is_node) continue;  // Children already enqueued.
      KSP_RETURN_NOT_OK(VisitPlace(&run, scan, static_cast<PlaceId>(item.id),
                                   item.distance, theta, score_bound,
                                   &heap));
      if (!interrupt_status_.ok()) break;
    }
    KSP_RETURN_NOT_OK(iterator.status());
    st->rtree_nodes_accessed = iterator.nodes_accessed();
  }
  return FinishRun(&run, std::move(heap).Finish());
}

}  // namespace ksp
