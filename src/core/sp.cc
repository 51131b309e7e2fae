// SP (Algorithm 4, §5): kSP evaluation ordered by α-radius ranking-score
// bounds. R-tree entries (nodes and places) are drained from the
// α-ordered stream (core/alpha_stream.h) in ascending f_B^α order;
// Pruning Rules 3 and 4 discard entries whose bound cannot beat the
// current k-th candidate, and the surviving places go through the same
// per-place step as SPP (Rules 1 and 2, QueryExecutor::VisitPlace).

#include "core/alpha_stream.h"
#include "core/executor.h"

namespace ksp {

Result<KspResult> QueryExecutor::ExecuteSp(const KspQuery& query,
                                           QueryStats* stats) {
  const KspOptions& options = db_->options();
  // Ablation: SP without α-bounds degenerates to SPP.
  if (!options.use_alpha_pruning) return ExecuteSpp(query, stats);
  const PlaceScan scan{/*alpha_ordered=*/true,
                       options.use_unqualified_pruning,
                       options.use_dynamic_bound_pruning};
  QueryRun run(stats);
  KSP_RETURN_NOT_OK(BeginRun(query, &scan, &run));
  if (run.cached) return std::move(*run.cached);

  QueryStats* st = run.st;
  const SpatialAccessor& rtree = *db_->spatial_accessor();
  TopKHeap heap(query.k);
  if (!run.ctx.answerable) {
    ExplainTermination("unanswerable");
  } else if (rtree.empty()) {
    // No places: nothing to scan.
  } else {
    ExplainTermination("exhausted");
    AlphaStream stream(rtree, *db_->alpha_index(), options.ranking,
                       query.location, run.ctx.terms);
    KSP_RETURN_NOT_OK(stream.PushRoot(&spatial_cursor_));
    FoldCursorIo(&spatial_cursor_.io, st);
    while (!stream.empty()) {
      if (ScanStopped(&run)) break;
      const AlphaQueueItem item = stream.Pop();
      const double theta = EffectiveThreshold(heap);
      // Termination (Algorithm 4, line 9): bounds pop in ascending order.
      if (item.score_bound >= theta) {
        ExplainTermination("threshold");
        break;
      }
      if (!item.is_node) {
        KSP_RETURN_NOT_OK(VisitPlace(&run, scan,
                                     static_cast<PlaceId>(item.id),
                                     item.spatial_lb, theta,
                                     item.score_bound, &heap));
        if (!interrupt_status_.ok()) break;
        continue;
      }

      // Internal/leaf node: expand children with their α-bounds
      // (Pruning Rules 3 and 4 gate the push).
      TraceSpan span(run.trace, TracePhase::kRtreeNn);
      ++st->rtree_nodes_accessed;
      SpatialNodeRef node;
      KSP_RETURN_NOT_OK(rtree.ReadNode(static_cast<uint32_t>(item.id),
                                       &spatial_cursor_, &node));
      FoldCursorIo(&spatial_cursor_.io, st);
      span.AddItems(node.entries.size());
      const double gate_theta = EffectiveThreshold(heap);
      stream.PushChildren(
          node, gate_theta,
          [&](const AlphaQueueItem& child, double looseness_bound) {
            if (child.is_node) {
              ++st->pruned_alpha_node;  // Pruning Rule 4.
            } else {
              ++st->pruned_alpha_place;  // Pruning Rule 3.
            }
            if (!explain_on()) return;
            ExplainCandidate row;
            row.is_node = child.is_node;
            if (child.is_node) {
              row.node_id = static_cast<uint32_t>(child.id);
            } else {
              row.place = static_cast<PlaceId>(child.id);
            }
            row.spatial_distance = child.spatial_lb;
            row.threshold = gate_theta;
            row.score_bound = child.score_bound;
            row.looseness = looseness_bound;
            row.outcome = child.is_node ? CandidateOutcome::kPrunedRule4
                                        : CandidateOutcome::kPrunedRule3;
            ExplainCandidateRow(row);
          });
    }
  }
  return FinishRun(&run, std::move(heap).Finish());
}

}  // namespace ksp
