#ifndef KSP_CORE_TRACE_H_
#define KSP_CORE_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace ksp {

/// Phases of a kSP query, mirroring where the paper's evaluation splits
/// runtime (Figs. 3-10). The taxonomy is part of the observability
/// contract — see DESIGN.md §7 before renaming or renumbering.
enum class TracePhase : uint8_t {
  kRtreeNn = 0,      // Incremental NN / α-bound R-tree traversal.
  kBfsExpand,        // TA's backward multi-source keyword BFS rounds.
  kTqspCompute,      // GetSemanticPlace(P): forward BFS TQSP construction.
  kRule1Prune,       // Reachability probes of Pruning Rule 1.
  kRule2Prune,       // Dynamic-bound aborts (zero-duration events).
  kDocFetch,         // Posting-list fetch + M_q.ψ construction.
  kCacheLookup,      // Semantic-cache probes (dg + result layers, §9).
  kPageIo,           // Buffer-pool page fetches (disk backend only).
  kShardDispatch,    // Scatter-gather shard visits (§12; sharded only).
};
inline constexpr size_t kNumTracePhases = 9;

/// Stable snake_case name ("rtree_nn", ...), used in metric names and
/// trace exports.
const char* TracePhaseName(TracePhase phase);

/// Per-query trace sink: timestamped phase spans (opened/closed by RAII
/// TraceSpan guards) plus per-phase aggregates. Spans may nest; the
/// aggregates keep both inclusive and exclusive (self, minus child spans)
/// time so that exclusive totals across phases partition the instrumented
/// wall time with no double counting.
///
/// A QueryTrace is single-threaded scratch, like the QueryExecutor that
/// writes to it. Passing a null QueryTrace* wherever one is accepted
/// disables tracing: a TraceSpan over nullptr reads no clock and writes
/// nothing (see NullTraceSpan for the compile-time-checkable variant).
class QueryTrace {
 public:
  struct Span {
    TracePhase phase;
    /// Offset from the trace epoch (first span since Clear()).
    int64_t start_us = 0;
    int64_t duration_us = 0;
    /// Nesting depth: 0 for top-level spans.
    uint32_t depth = 0;
    /// Span-specific item count (e.g. BFS pops inside tqsp_compute).
    uint64_t items = 0;
  };

  QueryTrace() = default;
  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  /// When false, spans are aggregated (totals/counts) but the per-span
  /// list is not kept — the mode for always-on production metrics where
  /// a query can open thousands of spans.
  void set_record_spans(bool record) { record_spans_ = record; }

  /// Drops all spans and aggregates; the next span restarts the epoch.
  void Clear();

  const std::vector<Span>& spans() const { return spans_; }
  /// True while any TraceSpan guard is open.
  bool HasOpenSpans() const { return !open_.empty(); }

  /// Total time inside `phase` spans, including nested child spans of
  /// other phases.
  int64_t PhaseInclusiveUs(TracePhase phase) const {
    return inclusive_us_[static_cast<size_t>(phase)];
  }
  /// Total time inside `phase` spans, excluding nested child spans —
  /// summing this over all phases never counts an instant twice.
  int64_t PhaseExclusiveUs(TracePhase phase) const {
    return exclusive_us_[static_cast<size_t>(phase)];
  }
  uint64_t PhaseCount(TracePhase phase) const {
    return count_[static_cast<size_t>(phase)];
  }
  uint64_t PhaseItems(TracePhase phase) const {
    return items_[static_cast<size_t>(phase)];
  }

  /// Records an instantaneous event (a zero-duration span), e.g. one
  /// Rule-2 abort.
  void RecordEvent(TracePhase phase, uint64_t items = 1);

  /// Credits `us` of externally measured wall time to `phase` as if a
  /// closed child span had run inside the innermost open span: the time
  /// counts as inclusive AND exclusive for `phase`, and is subtracted
  /// from the enclosing span's exclusive time, preserving the
  /// partition invariant of PhaseExclusiveUs. Used for page-I/O time
  /// measured by storage cursors (which cannot open spans themselves
  /// without a layering inversion). Call while the span that contained
  /// the I/O is still open. No-op when `us` and `items` are both 0.
  void AddChildTime(TracePhase phase, int64_t us, uint64_t items);

  /// JSON: {"spans": [{"phase", "start_us", "duration_us", "depth",
  /// "items"}], "phase_totals_us": {...}} with spans in start order.
  std::string ToJson() const;

 private:
  friend class TraceSpan;

  using Clock = std::chrono::steady_clock;

  int64_t NowUs();

  /// Begin/End are called only by TraceSpan with a non-null trace.
  void BeginSpan();
  void EndSpan(TracePhase phase, uint64_t items);

  struct OpenSpan {
    int64_t start_us = 0;
    /// Inclusive time of already-closed direct children.
    int64_t child_us = 0;
  };

  bool record_spans_ = true;
  bool epoch_set_ = false;
  Clock::time_point epoch_{};
  std::vector<Span> spans_;
  std::vector<OpenSpan> open_;
  int64_t inclusive_us_[kNumTracePhases] = {};
  int64_t exclusive_us_[kNumTracePhases] = {};
  uint64_t count_[kNumTracePhases] = {};
  uint64_t items_[kNumTracePhases] = {};
};

/// RAII span guard: opens a phase span on construction, closes it on
/// destruction — including early `return Status` paths, which is the
/// point of the RAII shape. With trace == nullptr the constructor and
/// destructor read no clock and touch no memory beyond the two members,
/// so disabled tracing costs two register writes and a branch.
class TraceSpan {
 public:
  TraceSpan(QueryTrace* trace, TracePhase phase)
      : trace_(trace), phase_(phase) {
    if (trace_ != nullptr) trace_->BeginSpan();
  }
  ~TraceSpan() {
    if (trace_ != nullptr) trace_->EndSpan(phase_, items_);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches an item count to the span (e.g. vertices popped).
  void AddItems(uint64_t n) { items_ += n; }

 private:
  QueryTrace* trace_;
  TracePhase phase_;
  uint64_t items_ = 0;
};

/// Compile-time null sink: code templated on the span type can
/// instantiate with NullTraceSpan and the optimizer erases every trace
/// operation — there is nothing to call. The static_asserts below make
/// "zero state, zero ops" checkable at compile time.
struct NullTraceSpan {
  constexpr NullTraceSpan(std::nullptr_t, TracePhase) {}
  constexpr void AddItems(uint64_t) {}
};
static_assert(sizeof(NullTraceSpan) == 1, "null sink must carry no state");
static_assert(std::is_trivially_destructible_v<NullTraceSpan>,
              "null sink must compile away");

}  // namespace ksp

#endif  // KSP_CORE_TRACE_H_
