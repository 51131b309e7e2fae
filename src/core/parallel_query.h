#ifndef KSP_CORE_PARALLEL_QUERY_H_
#define KSP_CORE_PARALLEL_QUERY_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/io_stats.h"
#include "common/status.h"
#include "core/executor.h"
#include "core/query.h"
#include "core/semantic_place.h"
#include "core/stats.h"
#include "core/trace.h"
#include "spatial/rtree.h"

namespace ksp {

/// Intra-query parallel execution of the spatial-first (BSP/SPP) and
/// α-bound-ordered (SP) loops — DESIGN.md §8.
///
/// Structure: one *producer* thread drains the candidate stream (the
/// incremental-NN stream for BSP/SPP; the exact α-bound priority queue
/// for SP) into a bounded ring; `num_workers` *workers* speculatively run
/// Rule 1 and TQSP construction on the queued places, each on its own
/// epoch-tagged QueryExecutor scratch; the *ordered-commit* stage (the
/// calling thread) applies results to the TopKHeap strictly in stream
/// order.
///
/// Exactness. θ (the k-th best committed score) is non-increasing over
/// the commit sequence, and LoosenessThreshold(θ, s) is monotone in θ,
/// so every threshold a worker derives from the shared atomic θ is >= the
/// exact commit-time threshold: speculation can only under-prune, never
/// over-prune. Each worker records its monotone dynamic-bound trajectory
/// (TqspBoundStep); the commit replays it against the exact commit-time
/// threshold to reconstruct the precise pop at which the sequential BFS
/// would have aborted — recovering bit-identical Rule-2 prune decisions
/// and visited-vertex counts. Termination, timeout and node accounting
/// replay per-item stream snapshots (BSP/SPP) or run producer-side
/// against exact θ behind an all-places-committed barrier (SP). The
/// final top-k, completion flag and every committed QueryStats counter
/// are therefore identical to the sequential path at every thread count;
/// only wall/CPU time fields and speculative_wasted_tqsp may differ.
///
/// Threads are created once and parked between runs on a generation
/// counter; Run returns only after producer and workers have parked
/// again, so the borrowed query context never escapes a run.
class IntraQueryPipeline {
 public:
  IntraQueryPipeline(const KspDatabase* db, uint32_t num_workers);
  ~IntraQueryPipeline();

  IntraQueryPipeline(const IntraQueryPipeline&) = delete;
  IntraQueryPipeline& operator=(const IntraQueryPipeline&) = delete;

  uint32_t num_workers() const {
    return static_cast<uint32_t>(worker_execs_.size());
  }

  /// Replaces the sequential scan loop of ExecuteSpatialFirst (BSP/SPP)
  /// or, with scan.alpha_ordered, of ExecuteSp (α pruning on, R-tree
  /// non-empty): installs the run state, wakes the fleet, runs the
  /// ordered commit on the calling thread and quiesces before it
  /// returns. In SP's case node expansions — whose Rule-3/4 tests and
  /// termination check need the exact θ — run on the producer behind a
  /// barrier that waits for every emitted place to commit; place TQSPs
  /// (the dominant cost) overlap across workers.
  ///
  /// Reads the query, its prepared context and the total timer from
  /// `run`, accrues summed worker TQSP time (may exceed wall time) into
  /// run->semantic_seconds and folds producer/worker phase aggregates
  /// into run->trace, if any. `heap` carries the (empty) top-k
  /// accumulator. Returns non-OK when a disk-backend read failed on the
  /// producer or any worker (results are then meaningless), or with
  /// kCancelled/kDeadlineExceeded when `cancel` (optional; shared with
  /// every worker for the run) tripped — the ordered commit is the sole
  /// authority on that verdict, so a completed commit never turns into
  /// an interruption retroactively. `cache_epoch` is the driving
  /// executor's semantic-cache epoch snapshot, copied onto the workers
  /// so speculative inserts stay in the query's cache generation.
  Status Run(const QueryExecutor::PlaceScan& scan,
             QueryExecutor::QueryRun* run, TopKHeap* heap,
             CancellationToken* cancel, uint64_t cache_epoch);

 private:
  enum class SlotState : uint8_t { kProduced, kClaimed, kDone };

  /// Worker output for one speculated place.
  struct SpecResult {
    double looseness = 0.0;   // +inf: unqualified or speculatively aborted
    bool rule1_unqualified = false;
    uint64_t visits = 0;          // worker's full BFS pop count
    uint64_t reach_queries = 0;   // Rule-1 probes (θ-independent, exact)
    std::vector<TqspBoundStep> bound_log;
    SemanticPlaceTree tree;
  };

  /// One candidate-stream item in the bounded ring.
  struct Slot {
    uint64_t seq = 0;
    bool is_node = false;
    PlaceId place = kInvalidPlace;
    VertexId root = kInvalidVertex;
    double spatial = 0.0;
    /// Stream-order termination key: MinScoreGivenSpatialDistance for the
    /// spatial-first stream, f_B^α for the α-ordered stream.
    double score_bound = 0.0;
    /// NN-iterator nodes-accessed snapshot right after this item popped
    /// (spatial-first mode only) — the exact value the sequential scan
    /// reports when it stops on this item.
    uint64_t rtree_nodes = 0;
    SlotState state = SlotState::kDone;
    SpecResult result;
  };

  void ProducerLoop();
  void WorkerLoop(size_t worker_index);
  Status ProduceSpatialFirst();
  Status ProduceAlphaOrdered();
  /// Rule 1 + speculative TQSP for one claimed place (no lock held).
  void ProcessCandidate(size_t worker_index, Slot* slot);
  /// Runs one query's ordered-commit stage to termination (lock held).
  void CommitLoop(std::unique_lock<std::mutex>& lock,
                  const Timer& total_timer, TopKHeap* heap, QueryStats* st,
                  QueryTrace* trace);
  /// Applies one place's speculative result exactly (lock held): replays
  /// the bound trajectory against the commit-time threshold, folds exact
  /// counters into `st`, and admits the entry to the heap.
  void CommitCandidate(Slot* slot, TopKHeap* heap, QueryStats* st,
                       QueryTrace* trace);
  /// Fills the next ring slot (lock held). Returns false when the run was
  /// stopped while waiting for ring space.
  bool EmitSlot(std::unique_lock<std::mutex>& lock, bool is_node,
                uint64_t id, double spatial, double score_bound,
                uint64_t rtree_nodes);

  const KspDatabase* db_;
  std::vector<std::unique_ptr<QueryExecutor>> worker_execs_;
  std::vector<std::unique_ptr<QueryTrace>> worker_traces_;  // aggregate-only
  std::vector<double> worker_semantic_s_;
  QueryTrace producer_trace_;  // aggregate-only
  std::vector<std::thread> threads_;  // workers, then the producer

  /// One mutex + one condvar cover every pipeline state transition
  /// (production, claim, completion, commit advance, parking): candidates
  /// are millisecond-scale BFS units, so wake-up granularity is cheap
  /// relative to the work and the single-lock protocol stays auditable
  /// (and TSan-clean).
  std::mutex mu_;
  std::condition_variable cv_;
  bool shutdown_ = false;
  uint64_t generation_ = 0;
  size_t active_ = 0;  // producer + workers not yet parked this run

  // ---- Per-run state (installed under mu_ before the generation bump,
  // immutable or mu_-guarded while the run is live) ----
  bool alpha_ordered_ = false;
  const KspQuery* query_ = nullptr;
  const QueryExecutor::QueryContext* ctx_ = nullptr;
  bool use_rule1_ = false;
  bool use_rule2_ = false;
  bool tracing_ = false;
  const Timer* total_timer_ = nullptr;
  /// Cancellation token of the current run (nullptr: none). Shared with
  /// every worker executor; the CommitLoop polls it and is the only
  /// stage allowed to fold a trip into run_status_ — workers and
  /// producer just stop early, so a query that commits to completion
  /// before the trip is observed still returns its complete result.
  CancellationToken* run_cancel_ = nullptr;
  std::vector<Slot> ring_;
  uint64_t produced_ = 0;
  uint64_t committed_ = 0;
  uint64_t claim_cursor_ = 0;
  bool producer_done_ = false;
  bool producer_timeout_ = false;
  bool stop_ = false;
  /// Exact "R-tree nodes accessed": final iterator count (spatial mode,
  /// stream exhausted) or the pre-termination node-pop count maintained
  /// behind the SP barrier.
  uint64_t producer_rtree_nodes_ = 0;
  uint64_t producer_pruned_rule3_ = 0;
  uint64_t producer_pruned_rule4_ = 0;
  /// Producer-side spatial reads go through this cursor; its accumulated
  /// page-I/O is flushed into producer_page_io_ (under mu_) when the
  /// producer parks, and folded into the run's QueryStats by Run().
  SpatialCursor producer_cursor_;
  PageIoCounters producer_page_io_;
  /// First disk-backend read error of the run (producer or worker,
  /// mu_-guarded). Run() returns it; on error the heap contents are
  /// discarded by the caller.
  Status run_status_;

  /// Latest committed θ. Workers/producer read it relaxed: any stale
  /// value is >= the exact commit-time θ (it only decreases), so every
  /// speculative decision derived from it is sound.
  std::atomic<double> theta_{0.0};
  /// TQSP constructions started by workers this run; minus the committed
  /// tqsp_computations this is the wasted speculation.
  std::atomic<uint64_t> spec_tqsp_runs_{0};
  /// Cache evictions triggered by worker dg-cache inserts this run.
  /// Like wasted speculation, interleaving-dependent — reported in
  /// QueryStats::cache_evictions but outside the determinism contract.
  std::atomic<uint64_t> spec_cache_evictions_{0};
  /// Buffer-pool counters accumulated by worker-side speculative BFS
  /// expansions (disk backend). Interleaving-dependent, like the two
  /// counters above — reported but outside the determinism contract.
  std::atomic<uint64_t> spec_bufferpool_hits_{0};
  std::atomic<uint64_t> spec_bufferpool_misses_{0};
  std::atomic<uint64_t> spec_bufferpool_evictions_{0};
};

}  // namespace ksp

#endif  // KSP_CORE_PARALLEL_QUERY_H_
