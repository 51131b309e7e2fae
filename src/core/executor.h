#ifndef KSP_CORE_EXECUTOR_H_
#define KSP_CORE_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/cancellation.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/timer.h"
#include "common/types.h"
#include "core/database.h"
#include "core/explain.h"
#include "core/query.h"
#include "core/semantic_place.h"
#include "core/stats.h"
#include "core/trace.h"

namespace ksp {

/// Bounded top-k accumulator ordered by (score, place) with the threshold
/// θ used by all algorithms' pruning rules.
class TopKHeap {
 public:
  explicit TopKHeap(uint32_t k) : k_(k) {}

  /// θ: score of the current k-th candidate; +inf while not full.
  double Threshold() const;

  /// Inserts if the entry beats the current k-th candidate.
  void Add(KspResultEntry entry);

  /// True iff Add would insert an entry with this (score, place) —
  /// including the exact tie handling Add applies when the heap is full.
  /// Lets the semantic-cache fast path decide "is the BFS-materialized
  /// tree needed?" without mutating the heap.
  bool WouldAdd(double score, PlaceId place) const;

  bool Full() const { return entries_.size() >= k_; }

  /// Entries in ascending (score, place) order.
  KspResult Finish() &&;

 private:
  uint32_t k_;
  /// Max-heap on (score, place): worst candidate at front.
  std::vector<KspResultEntry> entries_;
};

/// A per-query (or per-thread) execution session over one prepared
/// KspDatabase. Holds only mutable scratch state — epoch-tagged BFS
/// arrays, the per-query keyword context, the top-k heap — so it is cheap
/// to construct on the stack and any number of executors can run
/// concurrently against the same database.
///
/// Evaluates kSP queries with the paper's three algorithms (BSP §3,
/// SPP §4, SP §5) plus the TA baseline (§6.2.6). The database must be
/// prepared before querying: every Execute* fails with
/// Status::InvalidArgument if the R-tree has not been built — executors
/// never build indexes — or if the query location is not finite.
///
/// One executor is NOT thread-safe (its scratch is reused across calls);
/// use one executor per thread.
class QueryExecutor {
 public:
  explicit QueryExecutor(const KspDatabase* db);

  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  const KspDatabase& db() const { return *db_; }

  /// ---- Query algorithms ----

  /// Runs `query` with `algorithm`: the one switch over the five
  /// Execute* below, for callers that pick the algorithm at run time.
  Result<KspResult> Execute(KspAlgorithm algorithm, const KspQuery& query,
                            QueryStats* stats = nullptr);

  /// Basic Semantic Place retrieval (Algorithm 1).
  Result<KspResult> ExecuteBsp(const KspQuery& query,
                               QueryStats* stats = nullptr);

  /// Semantic Place retrieval with Pruning Rules 1 and 2 (§4).
  Result<KspResult> ExecuteSpp(const KspQuery& query,
                               QueryStats* stats = nullptr);

  /// Semantic Place retrieval with α-radius bounds (Algorithm 4, §5).
  Result<KspResult> ExecuteSp(const KspQuery& query,
                              QueryStats* stats = nullptr);

  /// Threshold Algorithm baseline combining a looseness-ordered keyword
  /// stream with the spatial NN stream (§6.2.6).
  Result<KspResult> ExecuteTa(const KspQuery& query,
                              QueryStats* stats = nullptr);

  /// Location-free RDF keyword search ([43]/BLINKS restricted to place
  /// roots): the top-k places by looseness alone. query.location is
  /// ignored for ranking (entry.score == looseness); spatial distance is
  /// still reported per entry.
  Result<KspResult> ExecuteKeywordOnly(const KspQuery& query,
                                       QueryStats* stats = nullptr);

  /// Computes the TQSP of one place for a query (Algorithm 2), with the
  /// full tree (matched vertices and root paths) materialized. Fails on
  /// an invalid query (e.g. more than 64 distinct keywords).
  Result<SemanticPlaceTree> ComputeTqspForPlace(PlaceId place,
                                                const KspQuery& query);

  /// Footnote 2, option (2): like ComputeTqspForPlace but collecting, per
  /// keyword, *every* vertex at the minimum distance — i.e., the full set
  /// of tied minimum-looseness semantic places rooted at `place`.
  Result<TiedSemanticPlace> ComputeTqspAlternatives(PlaceId place,
                                                    const KspQuery& query);

  /// ---- Observability ----

  /// EXPLAIN: evaluates the query while recording every candidate the
  /// search touches (visit order, θ and looseness at decision time, which
  /// pruning rule killed it) plus the termination reason. Supported for
  /// the place-at-a-time algorithms (BSP, SPP, SP); TA/keyword-only
  /// return Unimplemented.
  Result<ExplainReport> Explain(const KspQuery& query,
                                KspAlgorithm algorithm = KspAlgorithm::kSp);

  /// Attaches a per-query trace sink: every subsequent Execute* clears it
  /// and records its phase spans into it. Pass nullptr to detach —
  /// tracing then costs nothing on the query path (see TraceSpan).
  /// The trace must outlive the executor or be detached first.
  void set_trace(QueryTrace* trace) { trace_ = trace; }
  QueryTrace* trace() const { return trace_; }

  /// Attaches a metrics registry: every subsequent Execute* increments
  /// the ksp_* query counters/histograms (DESIGN.md §7), including
  /// per-phase exclusive time counters gathered through an internal
  /// aggregate-only trace when no external trace is attached. Handles are
  /// cached here, so registration cost is paid once. Pass nullptr to
  /// detach. The registry must outlive the executor or be detached first.
  void set_metrics(MetricsRegistry* registry);
  MetricsRegistry* metrics() const { return metrics_.registry; }

  /// Attaches a cancellation/deadline token polled cooperatively at phase
  /// boundaries (per candidate place, every few dozen BFS pops). When the
  /// token trips, the running Execute* unwinds
  /// promptly and returns Status::Cancelled / Status::DeadlineExceeded
  /// with the partial QueryStats stamped (stats.completed == false) —
  /// never a partial top-k presented as complete. Executor scratch stays
  /// consistent: re-running the same query after a cancellation produces
  /// results byte-identical to an uncancelled run. Pass nullptr to
  /// detach; the token must outlive every Execute* that can observe it.
  void set_cancellation(CancellationToken* token) {
    cancel_ = token;
    interrupt_status_ = Status::OK();
  }
  CancellationToken* cancellation() const { return cancel_; }

  /// Forces the BFS epoch counter, so tests can exercise the uint32_t
  /// wraparound path without 2^32 warm-up queries.
  void set_bfs_epoch_for_testing(uint16_t epoch) { epoch_ = epoch; }

  /// Attaches a shared global θ (DESIGN.md §12): every θ read of the
  /// pruning rules and heap-admission checks becomes
  /// min(local heap θ, *theta). The atomic only ever decreases during a
  /// scatter-gather query, so the effective threshold stays ≥ the final
  /// global θ and every prune a shard takes is one the merged execution
  /// would also take — exactness is preserved while shards tighten each
  /// other. Side effects while attached: the result-cache layer is
  /// bypassed (a θ-truncated shard result must never be cached under a
  /// θ-free key; the dg layer stays on — distances are exact regardless
  /// of θ). Pass nullptr to detach; the atomic must outlive every
  /// Execute* that can observe it.
  void set_shared_theta(const std::atomic<double>* theta) {
    shared_theta_ = theta;
  }
  const std::atomic<double>* shared_theta() const { return shared_theta_; }

 private:
  friend class TaSearch;

  /// Per-query derived state: deduplicated keywords, their posting lists,
  /// and the vertex -> keyword-bitmask map M_q.ψ of §3.
  ///
  /// M_q.ψ is the owning executor's `keyword_masks_` (DESIGN.md §13),
  /// which is all zero between queries: PrepareContext ORs in the bits
  /// of the posting entries, and the destructor zeroes exactly those
  /// entries again, so every exit of a query leaves the array clean.
  /// Invariant: an executor holds at most one prepared context at a
  /// time. A second one would OR into the same array, and whichever
  /// died first would clear the other's bits.
  struct QueryContext {
    QueryContext() = default;
    QueryContext(const QueryContext&) = delete;
    QueryContext& operator=(const QueryContext&) = delete;
    ~QueryContext();

    const KspQuery* query = nullptr;
    std::vector<TermId> terms;  // deduplicated, query order
    uint64_t full_mask = 0;
    bool answerable = true;
    /// Posting-list views aligned with `terms`: zero-copy spans into the
    /// inverted index when it is memory-resident, else views into
    /// `owned_postings` (the disk index's per-query copies).
    std::vector<std::span<const VertexId>> postings;
    std::vector<std::vector<VertexId>> owned_postings;
    std::vector<uint32_t> rarest_first;  // keyword idxs by posting length
    /// Page I/O of the posting fetches (disk backend; zero on memory).
    PageIoCounters io;
    /// The executor's keyword masks once PrepareContext has set this
    /// query's bits; nullptr until then, and so nothing to clear.
    uint64_t* keyword_masks = nullptr;

    uint64_t MaskOf(VertexId v) const { return keyword_masks[v]; }
  };

  /// Fetches the posting lists, checks every id against the KB (an
  /// out-of-range id is Corruption, before any bit is set) and ORs the
  /// keyword bits into keyword_masks_.
  Status PrepareContext(const KspQuery& query, QueryContext* ctx);

  /// The prepared-before-query contract: BeginRun checks it first.
  Status CheckPrepared() const;

  /// How a place-at-a-time run (BSP/SPP/SP) orders and prunes its
  /// candidates. Also the path component of its result-cache key.
  struct PlaceScan {
    /// SP's f_B^α queue (AlphaStream); else the incremental-NN stream.
    bool alpha_ordered = false;
    bool use_rule1 = false;
    bool use_rule2 = false;
  };

  /// One Execute* call from the shared prologue (BeginRun) to the shared
  /// epilogue (FinishRun).
  struct QueryRun {
    explicit QueryRun(QueryStats* stats)
        : st(stats != nullptr ? stats : &local_stats) {}
    QueryRun(const QueryRun&) = delete;
    QueryRun& operator=(const QueryRun&) = delete;

    QueryStats local_stats;
    QueryStats* st;
    Timer total_timer;
    QueryTrace* trace = nullptr;
    QueryContext ctx;
    /// Summed TQSP time; FinishRun stamps it as semantic_ms.
    double semantic_seconds = 0.0;
    /// Result-cache key; empty while the result layer is off for the run.
    std::string result_key;
    /// A result-cache hit, already accounted: the caller returns it as is.
    std::optional<KspResult> cached;
  };

  /// Shared prologue of all five Execute*: checks the database is
  /// prepared (and, for `scan`, the indexes its rules read) and the
  /// query location is finite, resets the stats, opens the query
  /// (interrupt, cache epoch, trace, cursor I/O), probes the result
  /// cache (place-at-a-time runs only; a hit is finished here and left
  /// in run->cached), and prepares the keyword context under doc_fetch.
  /// TA and keyword-only pass no scan.
  Status BeginRun(const KspQuery& query, const PlaceScan* scan,
                  QueryRun* run);

  /// Shared epilogue: stamps semantic_ms/total_ms, then either fails an
  /// interrupted query with its partial stats, or caches a completed
  /// result (when the result layer is on) and records the metrics.
  Result<KspResult> FinishRun(QueryRun* run, KspResult result);

  /// The per-candidate stop test of every scan loop: true (and the
  /// reason noted for Explain) once the time limit passed — the stats
  /// are then incomplete — or the query was cancelled.
  bool ScanStopped(QueryRun* run);

  /// The per-place step of BSP/SPP/SP: Pruning Rule 1, the Rule-2
  /// threshold, the dg-cache fast path, the TQSP BFS (Algorithms 2/3),
  /// the Explain row (`score_bound` is its bound column) and top-k
  /// admission, for one place popped at θ = `theta`. An interrupted BFS
  /// leaves interrupt_status_ set: the caller stops its scan.
  Status VisitPlace(QueryRun* run, const PlaceScan& scan, PlaceId place,
                    double spatial, double theta, double score_bound,
                    TopKHeap* heap);

  /// Shared loop of BSP and SPP: places in ascending spatial distance,
  /// optional Pruning Rules 1 and 2.
  Result<KspResult> ExecuteSpatialFirst(const KspQuery& query,
                                        QueryStats* stats, bool use_rule1,
                                        bool use_rule2);

  /// GetSemanticPlace / GetSemanticPlaceP: BFS TQSP construction. Returns
  /// L(T_p) or +inf (unqualified, or aborted by the dynamic bound when
  /// `looseness_threshold` < +inf and dynamic pruning is on). If `tree` is
  /// non-null, matches and root paths are materialized on success.
  double ComputeTqsp(VertexId root, const QueryContext& ctx,
                     double looseness_threshold, bool use_dynamic_bound,
                     SemanticPlaceTree* tree, QueryStats* stats);

  /// Pruning Rule 1: true if some query keyword is unreachable from root.
  bool IsUnqualifiedPlace(VertexId root, const QueryContext& ctx,
                          QueryStats* stats) const;

  /// Outcome of a dg-cache probe for one candidate (DESIGN.md §9).
  /// Anything but kMiss means every keyword distance was cached and the
  /// TQSP BFS can be skipped with a decision bit-identical to running it:
  ///   kUnqualified  some keyword is cached-unreachable (looseness +inf).
  ///   kPrunedRule2  L >= the Rule-2 threshold — exactly when the
  ///                 sequential BFS would abort via the dynamic bound.
  ///   kRejected     L is exact but TopKHeap::Add would ignore the entry.
  /// A candidate that WOULD enter the top-k still returns kMiss: the BFS
  /// must run to materialize its tree.
  enum class CachedTqsp { kMiss, kUnqualified, kPrunedRule2, kRejected };

  /// Probes the shared dg cache for every keyword of `ctx`.
  CachedTqsp TryCachedTqsp(VertexId root, PlaceId place,
                           const QueryContext& ctx,
                           double looseness_threshold, bool use_rule2,
                           const TopKHeap& heap, double spatial) const;

  /// Advances the BFS epoch, zero-filling the visit array when the
  /// uint32_t counter wraps (stale marks would otherwise alias the fresh
  /// epoch and corrupt TQSP construction).
  uint16_t BeginBfsEpoch();

  /// ---- Page-I/O folding (disk backend; all no-ops when io is zero) ----

  /// Folds externally measured page-I/O into the query's stats and the
  /// active trace's `page_io` phase. Call while the trace span that
  /// contained the I/O is still open, so the exclusive-time partition
  /// stays intact (see QueryTrace::AddChildTime).
  void FoldIo(const PageIoCounters& io, QueryStats* stats);
  /// FoldIo for an owned cursor counter: folds, then zeroes it.
  void FoldCursorIo(PageIoCounters* io, QueryStats* stats) {
    FoldIo(*io, stats);
    *io = PageIoCounters();
  }
  /// FoldIo for a cumulative counter read through a const ref (e.g.
  /// NearestIterator::io()): folds only the growth since `*folded`, then
  /// advances the snapshot.
  void FoldIoDelta(const PageIoCounters& cumulative, PageIoCounters* folded,
                   QueryStats* stats);

  /// ---- Observability internals ----

  /// Cached metric handles (resolved once in set_metrics; the query path
  /// never takes the registry mutex).
  struct MetricsHandles {
    MetricsRegistry* registry = nullptr;
    Counter* queries = nullptr;
    Counter* timeouts = nullptr;
    Counter* tqsp = nullptr;
    Counter* rtree_nodes = nullptr;
    Counter* bfs_vertices = nullptr;
    Counter* reach_queries = nullptr;
    Counter* pruned_rule[4] = {};
    Counter* cache_hits = nullptr;
    Counter* cache_misses = nullptr;
    Counter* cache_evictions = nullptr;
    Gauge* cache_bytes = nullptr;
    Counter* bufferpool_hits = nullptr;
    Counter* bufferpool_misses = nullptr;
    Counter* bufferpool_evictions = nullptr;
    Counter* wall_us = nullptr;
    Counter* semantic_us = nullptr;
    Counter* cancellations = nullptr;
    Counter* phase_us[kNumTracePhases] = {};
    Histogram* latency_ms = nullptr;
  };

  /// The trace Execute* should write spans into: the attached trace if
  /// any, the internal aggregate-only trace when only metrics are on,
  /// else nullptr (spans then compile down to the null check).
  QueryTrace* active_trace() {
    if (trace_ != nullptr) return trace_;
    return metrics_.registry != nullptr ? &internal_trace_ : nullptr;
  }

  /// Polls the attached cancellation token (no token: always false). The
  /// first trip sticks in interrupt_status_ until the next Execute*, so
  /// every later poll of the same query is a cheap branch and the
  /// algorithm loops unwind deterministically.
  bool CheckInterrupt() {
    if (cancel_ == nullptr) return false;
    if (interrupt_status_.ok()) {
      Status st = cancel_->Check();
      if (!st.ok()) interrupt_status_ = std::move(st);
    }
    return !interrupt_status_.ok();
  }

  /// Flushes one finished query into the metrics registry: QueryStats
  /// counters, wall/semantic time, the latency histogram, and the active
  /// trace's per-phase exclusive times.
  void RecordQueryMetrics(const QueryStats& stats);

  /// Appends an EXPLAIN candidate row (no-op unless Explain() is live).
  void ExplainCandidateRow(const ExplainCandidate& row) {
    if (explain_ == nullptr) return;
    explain_->candidates.push_back(row);
    explain_->candidates.back().order = explain_order_++;
  }
  void ExplainTermination(const char* reason) {
    if (explain_ != nullptr) explain_->termination = reason;
  }
  bool explain_on() const { return explain_ != nullptr; }

  /// θ as the pruning rules must see it: the local heap threshold,
  /// tightened by the shared global θ when one is attached (§12). Both
  /// only decrease within a query, so the min is monotone too.
  double EffectiveThreshold(const TopKHeap& heap) const {
    const double local = heap.Threshold();
    if (shared_theta_ == nullptr) return local;
    const double global = shared_theta_->load(std::memory_order_acquire);
    return global < local ? global : local;
  }

  const KspDatabase* db_;

  /// BFS scratch (epoch-tagged to avoid per-query clears). Epochs are
  /// deliberately 16-bit: the visit array is the single hottest
  /// randomly-accessed structure of the whole engine (~degree touches
  /// per BFS pop), and halving it doubles how much of it the L1 cache
  /// holds. The wrap refill in BeginBfsEpoch fires every 65535 epochs —
  /// one memset amortized over 65k TQSP constructions.
  std::vector<uint16_t> visit_epoch_;
  std::vector<VertexId> bfs_parent_;
  uint16_t epoch_ = 0;

  /// Flat frontier scratch of the level-synchronous BFS (DESIGN.md §13),
  /// holding (parent, vertex) pairs fused in a u64 per entry. Sized to
  /// the vertex count on first use and retained across candidates and
  /// queries, so the steady state allocates nothing. Only ComputeTqsp
  /// touches these.
  std::vector<uint64_t> frontier_;
  std::vector<uint64_t> next_frontier_;

  /// M_q.ψ of the prepared query (DESIGN.md §13): bit i of
  /// keyword_masks_[v] is set iff v's document holds the query's i-th
  /// distinct keyword, so the BFS reads a vertex's mask with one load.
  /// All zero between queries (see QueryContext). Sized to the vertex
  /// count on the first PrepareContext.
  std::vector<uint64_t> keyword_masks_;

  /// TQSP per-candidate tree scratch (match records, path reversal).
  /// Reset at each ComputeTqsp entry — allocations never outlive the
  /// candidate; see common/arena.h for the lifetime rules.
  Arena tqsp_arena_;

  /// Storage-accessor scratch (per-executor, like the BFS arrays). The
  /// graph cursor's sticky status is reset at each Execute* entry and
  /// checked after every BFS — a page-read failure surfaces as a query
  /// error instead of a silently truncated expansion.
  GraphCursor graph_cursor_;
  SpatialCursor spatial_cursor_;

  /// Cooperative cancellation (see set_cancellation). interrupt_status_
  /// is the sticky first trip of the current query; cleared by
  /// BeginRun()/set_cancellation.
  CancellationToken* cancel_ = nullptr;
  Status interrupt_status_;

  /// Semantic-cache epoch snapshot of the current query (BeginRun);
  /// tags every cache lookup/insert so an index reload mid-query can
  /// never mix cached data across generations.
  uint64_t cache_epoch_ = 0;

  /// Observability state. The internal trace is aggregate-only scratch
  /// (record_spans off) used when metrics are attached without a trace.
  QueryTrace* trace_ = nullptr;
  QueryTrace internal_trace_;
  MetricsHandles metrics_;
  ExplainReport* explain_ = nullptr;
  uint32_t explain_order_ = 0;

  /// Shared scatter-gather θ (see set_shared_theta); null = unsharded.
  const std::atomic<double>* shared_theta_ = nullptr;
};

}  // namespace ksp

#endif  // KSP_CORE_EXECUTOR_H_
