#ifndef KSP_CORE_STATS_H_
#define KSP_CORE_STATS_H_

#include <cstdint>

#include "common/io_stats.h"

namespace ksp {

/// Per-query execution counters matching the metrics of §6: runtime split
/// into "semantic time" (TQSP construction) and "other time", the number
/// of TQSP computations, and the number of R-tree nodes accessed; plus
/// pruning-effectiveness counters for the ablation benches.
struct QueryStats {
  double total_ms = 0.0;
  /// Time inside TQSP construction (GetSemanticPlace / GetSemanticPlaceP).
  double semantic_ms = 0.0;
  double other_ms() const { return total_ms - semantic_ms; }

  uint64_t tqsp_computations = 0;
  uint64_t rtree_nodes_accessed = 0;
  /// BFS vertex pops across all TQSP constructions.
  uint64_t vertices_visited = 0;

  uint64_t reachability_queries = 0;
  /// Places discarded by Pruning Rule 1 (unqualified place pruning).
  uint64_t pruned_unqualified = 0;
  /// TQSP constructions aborted by Pruning Rule 2 (dynamic bound).
  uint64_t pruned_dynamic_bound = 0;
  /// Places discarded by Pruning Rule 3 (α place bound).
  uint64_t pruned_alpha_place = 0;
  /// R-tree subtrees discarded by Pruning Rule 4 (α node bound).
  uint64_t pruned_alpha_node = 0;

  /// Semantic-cache activity (DESIGN.md §9). The dg counters are
  /// per-candidate: a hit means every keyword distance came from cache
  /// and the TQSP BFS was skipped entirely; a miss means the BFS ran
  /// while the cache was enabled. All five are 0 when the cache is off
  /// and excluded from the determinism contract (they measure work
  /// avoided, which depends on cache warmth).
  uint64_t dg_cache_hits = 0;
  uint64_t dg_cache_misses = 0;
  uint64_t result_cache_hits = 0;
  uint64_t result_cache_misses = 0;
  /// Entries this query's inserts pushed out of the cache.
  uint64_t cache_evictions = 0;

  /// Buffer-pool activity of the disk backend (DESIGN.md §10): page
  /// fetches served from cache, fetches that read the file, and frames
  /// evicted to stay under the byte budget. All zero on the in-memory
  /// backend and, like the cache counters above, excluded from the
  /// backend-invariance/determinism contract — they depend on pool
  /// budget and warmth, not on the algorithm.
  uint64_t bufferpool_hits = 0;
  uint64_t bufferpool_misses = 0;
  uint64_t bufferpool_evictions = 0;

  /// Scatter-gather activity of the sharded executor (DESIGN.md §12):
  /// shards whose query actually ran versus shards skipped because the
  /// MBR-derived lower bound on f met the running global θ. Both zero on
  /// unsharded execution and, like the cache/buffer-pool counters,
  /// excluded from the determinism contract — the prune count depends on
  /// shard visit timing, only the merged top-k is pinned.
  uint64_t shards_visited = 0;
  uint64_t shards_pruned = 0;

  /// False when the run hit the configured time limit (the paper aborts
  /// BSP queries at 120 s).
  bool completed = true;

  /// Folds one storage cursor's page-I/O counters into the query's
  /// buffer-pool counters (the timing component goes to the `page_io`
  /// trace phase, not here).
  void AddPageIo(const PageIoCounters& io) {
    bufferpool_hits += io.hits;
    bufferpool_misses += io.misses;
    bufferpool_evictions += io.evictions;
  }

  void Accumulate(const QueryStats& other) {
    total_ms += other.total_ms;
    semantic_ms += other.semantic_ms;
    tqsp_computations += other.tqsp_computations;
    rtree_nodes_accessed += other.rtree_nodes_accessed;
    vertices_visited += other.vertices_visited;
    reachability_queries += other.reachability_queries;
    pruned_unqualified += other.pruned_unqualified;
    pruned_dynamic_bound += other.pruned_dynamic_bound;
    pruned_alpha_place += other.pruned_alpha_place;
    pruned_alpha_node += other.pruned_alpha_node;
    dg_cache_hits += other.dg_cache_hits;
    dg_cache_misses += other.dg_cache_misses;
    result_cache_hits += other.result_cache_hits;
    result_cache_misses += other.result_cache_misses;
    cache_evictions += other.cache_evictions;
    bufferpool_hits += other.bufferpool_hits;
    bufferpool_misses += other.bufferpool_misses;
    bufferpool_evictions += other.bufferpool_evictions;
    shards_visited += other.shards_visited;
    shards_pruned += other.shards_pruned;
    completed = completed && other.completed;
  }
};

}  // namespace ksp

#endif  // KSP_CORE_STATS_H_
