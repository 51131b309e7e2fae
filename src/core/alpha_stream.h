#ifndef KSP_CORE_ALPHA_STREAM_H_
#define KSP_CORE_ALPHA_STREAM_H_

#include <cstdint>
#include <queue>
#include <span>
#include <vector>

#include "alpha/alpha_index.h"
#include "common/status.h"
#include "common/types.h"
#include "core/ranking.h"
#include "spatial/geometry.h"
#include "spatial/rtree.h"

namespace ksp {

/// Priority-queue item of SP's candidate order: an R-tree node or a place,
/// keyed by the α-bound on the ranking score (Lemmas 3 and 5).
struct AlphaQueueItem {
  double score_bound;
  double spatial_lb;  // MINDIST; exact for places
  bool is_node;
  uint64_t id;  // Node id or PlaceId.
};

/// SP's α-ordered candidate stream (Algorithm 4): R-tree entries pop in
/// ascending f_B^α = f(L_B^α, MINDIST), and a node's children enter the
/// queue only through the Rule-3/4 gate. SP's scan loop (sp.cc) drains
/// it.
class AlphaStream {
 public:
  /// `terms` are the query's deduplicated keywords; every argument must
  /// outlive the stream.
  AlphaStream(const SpatialAccessor& rtree, const AlphaIndex& alpha,
              const RankingFunction& ranking, const Point& location,
              std::span<const TermId> terms)
      : rtree_(rtree),
        alpha_(alpha),
        ranking_(ranking),
        location_(location),
        terms_(terms),
        alpha_plus_one_(static_cast<double>(alpha.alpha() + 1)) {}

  /// Queues the R-tree root, reading its rectangle through `cursor`.
  Status PushRoot(SpatialCursor* cursor) {
    const uint32_t root = rtree_.root();
    Rect root_rect;
    KSP_RETURN_NOT_OK(rtree_.NodeRect(root, cursor, &root_rect));
    const double s_lb = MinDist(location_, root_rect);
    const double l_b = LoosenessBound(alpha_.NodeEntry(root));
    queue_.push(AlphaQueueItem{ranking_.Score(l_b, s_lb), s_lb,
                               /*is_node=*/true, root});
    return Status::OK();
  }

  bool empty() const { return queue_.empty(); }

  AlphaQueueItem Pop() {
    const AlphaQueueItem item = queue_.top();
    queue_.pop();
    return item;
  }

  /// Pruning Rules 3 and 4 (Algorithm 4, line 21): queues each child of
  /// `node` whose f_B^α is below `theta`, and hands every other child to
  /// `on_prune(child, looseness_bound)` instead — a place for Rule 3, a
  /// subtree for Rule 4 (child.is_node).
  template <typename OnPrune>
  void PushChildren(const SpatialNodeRef& node, double theta,
                    OnPrune&& on_prune) {
    for (const RTree::Entry& e : node.entries) {
      const double s_lb = MinDist(location_, e.rect);
      const uint32_t entry_id =
          node.is_leaf ? alpha_.PlaceEntry(static_cast<PlaceId>(e.id))
                       : alpha_.NodeEntry(static_cast<uint32_t>(e.id));
      const double l_b = LoosenessBound(entry_id);
      const AlphaQueueItem child{ranking_.Score(l_b, s_lb), s_lb,
                                 !node.is_leaf, e.id};
      if (child.score_bound >= theta) {
        on_prune(child, l_b);
        continue;
      }
      queue_.push(child);
    }
  }

 private:
  struct Order {
    bool operator()(const AlphaQueueItem& a, const AlphaQueueItem& b) const {
      return a.score_bound > b.score_bound;  // Min-heap.
    }
  };

  /// L_B^α(entry) = 1 + Σ_i dg(entry, t_i), with α+1 for keywords outside
  /// the entry's α-radius word neighborhood (Lemmas 2 and 4, including the
  /// +1 normalization of Definition 2 — see DESIGN.md).
  double LoosenessBound(uint32_t entry_id) const {
    double bound = 1.0;
    for (TermId t : terms_) {
      const auto d = alpha_.EntryTermDistance(entry_id, t);
      bound += d.has_value() ? static_cast<double>(*d) : alpha_plus_one_;
    }
    return bound;
  }

  const SpatialAccessor& rtree_;
  const AlphaIndex& alpha_;
  const RankingFunction& ranking_;
  const Point location_;
  const std::span<const TermId> terms_;
  const double alpha_plus_one_;
  std::priority_queue<AlphaQueueItem, std::vector<AlphaQueueItem>, Order>
      queue_;
};

}  // namespace ksp

#endif  // KSP_CORE_ALPHA_STREAM_H_
