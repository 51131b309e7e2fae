// TA baseline (§6.2.6): Fagin's threshold algorithm over two ranked
// streams — qualified semantic places in ascending looseness (produced by
// backward multi-source BFS from the keyword postings, the keyword-first
// strategy of [43]) and places in ascending spatial distance (incremental
// R-tree NN). Random access completes the missing attribute of each pulled
// place; the run stops when the top-k can no longer be outranked by
// f(last_L, last_S).

#include <limits>
#include <queue>

#include "common/timer.h"
#include "core/executor.h"

namespace ksp {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr uint16_t kUnknownDist = 0xFFFF;
}  // namespace

/// Incremental looseness-ordered enumeration of qualified places.
/// Frontier i starts at the posting vertices of keyword i and expands over
/// reversed edges, so that a place first reached by frontier i at round d
/// satisfies dg(p, t_i) = d. A place whose m distances are all known has
/// its exact TQSP looseness; it is emitted once no unfinished place can
/// have smaller looseness (every unknown distance exceeds the current
/// round).
class TaSearch {
 public:
  /// Runs inside `run`, which BeginRun opened: its timer, stats, trace
  /// and TQSP time accumulator are this search's.
  TaSearch(QueryExecutor* exec, QueryExecutor::QueryRun* run)
      : exec_(exec),
        run_(run),
        db_(exec->db()),
        ctx_(run->ctx),
        stats_(run->st),
        trace_(run->trace),
        graph_(db_.graph_accessor()),
        n_(graph_.num_vertices()),
        m_(ctx_.terms.size()),
        dist_(static_cast<size_t>(n_) * m_, kUnknownDist),
        found_count_(db_.kb().num_places(), 0),
        frontiers_(m_) {}

  /// Both searches stop early on the time limit or a cancellation; an
  /// interrupted search returns a partial answer, which FinishRun turns
  /// into the interruption status.
  Result<KspResult> Run(const KspQuery& query);

  /// Location-free variant: the first k places off the looseness stream.
  Result<KspResult> RunKeywordOnly(const KspQuery& query);

 private:
  struct Candidate {
    double looseness;
    PlaceId place;
  };
  struct CandidateOrder {
    bool operator()(const Candidate& a, const Candidate& b) const {
      if (a.looseness != b.looseness) return a.looseness > b.looseness;
      return a.place > b.place;  // Min-heap on (looseness, place).
    }
  };

  uint16_t& DistOf(size_t keyword, VertexId v) {
    return dist_[keyword * n_ + v];
  }

  bool FrontiersExhausted() const {
    for (const auto& f : frontiers_) {
      if (!f.empty()) return false;
    }
    return true;
  }

  /// Marks v discovered by keyword i at distance d; completes places.
  void Discover(size_t keyword, VertexId v, uint16_t d) {
    DistOf(keyword, v) = d;
    frontiers_[keyword].push_back(v);
    const PlaceId place = db_.kb().place_of(v);
    if (place == kInvalidPlace) return;
    if (++found_count_[place] == m_) {
      double looseness = 1.0;
      for (size_t i = 0; i < m_; ++i) {
        looseness += static_cast<double>(DistOf(i, v));
      }
      emit_heap_.push(Candidate{looseness, place});
    }
  }

  void SeedFrontiers() {
    for (size_t i = 0; i < m_; ++i) {
      for (VertexId v : ctx_.postings[i]) {
        if (DistOf(i, v) == kUnknownDist) Discover(i, v, 0);
      }
    }
  }

  /// Expands every keyword frontier by one hop (round depth_ + 1).
  void ExpandRound() {
    const bool undirected = db_.options().undirected_edges;
    GraphCursor* cursor = &exec_->graph_cursor_;
    for (size_t i = 0; i < m_; ++i) {
      std::vector<VertexId> current;
      current.swap(frontiers_[i]);
      const uint16_t next_d = static_cast<uint16_t>(depth_ + 1);
      for (VertexId v : current) {
        for (VertexId w : graph_.InNeighbors(v, cursor)) {
          if (DistOf(i, w) == kUnknownDist) Discover(i, w, next_d);
        }
        if (undirected) {
          for (VertexId w : graph_.OutNeighbors(v, cursor)) {
            if (DistOf(i, w) == kUnknownDist) Discover(i, w, next_d);
          }
        }
      }
    }
    ++depth_;
  }

  /// Next qualified place in non-decreasing looseness order.
  bool NextByLooseness(Candidate* out) {
    if (!seeded_) {
      SeedFrontiers();
      seeded_ = true;
    }
    while (true) {
      // Expansion rounds sweep whole keyword frontiers; poll between
      // them so a deadline lands within one round. A false return here
      // looks like stream exhaustion to the caller — FinishRun's
      // interrupt check turns it into an error before any result ships.
      if (exec_->CheckInterrupt()) return false;
      const bool exhausted = FrontiersExhausted();
      const double emit_bound =
          exhausted ? kInf : static_cast<double>(depth_) + 2.0;
      if (!emit_heap_.empty() && emit_heap_.top().looseness <= emit_bound) {
        *out = emit_heap_.top();
        emit_heap_.pop();
        return true;
      }
      if (exhausted) return false;
      ExpandRound();
    }
  }

  QueryExecutor* exec_;
  QueryExecutor::QueryRun* run_;
  const KspDatabase& db_;
  const QueryExecutor::QueryContext& ctx_;
  QueryStats* stats_;
  QueryTrace* trace_;
  const GraphAccessor& graph_;
  const VertexId n_;
  const size_t m_;
  /// dist_[i*n + v] = dg(v, t_i) once discovered.
  std::vector<uint16_t> dist_;
  std::vector<uint8_t> found_count_;
  std::vector<std::vector<VertexId>> frontiers_;
  std::priority_queue<Candidate, std::vector<Candidate>, CandidateOrder>
      emit_heap_;
  uint32_t depth_ = 0;
  bool seeded_ = false;
};

Result<KspResult> TaSearch::Run(const KspQuery& query) {
  double& semantic_seconds = run_->semantic_seconds;
  const KnowledgeBase& kb = db_.kb();
  const RankingFunction& ranking = db_.options().ranking;
  TopKHeap topk(query.k);
  std::vector<bool> seen(kb.num_places(), false);

  NearestIterator spatial(db_.spatial_accessor(), query.location);
  PageIoCounters folded_nn_io;
  bool spatial_done = false;
  bool loose_done = false;
  double last_looseness = 1.0;
  double last_spatial = 0.0;

  while (!spatial_done || !loose_done) {
    if (exec_->ScanStopped(run_)) break;

    // Pull from the looseness stream; random-access its spatial distance.
    if (!loose_done) {
      Candidate candidate{};
      bool got;
      {
        ScopedTimer semantic_timer(&semantic_seconds);
        TraceSpan span(trace_, TracePhase::kBfsExpand);
        got = NextByLooseness(&candidate);
        exec_->FoldCursorIo(&exec_->graph_cursor_.io, stats_);
      }
      KSP_RETURN_NOT_OK(exec_->graph_cursor_.status);
      if (!got) {
        // All qualified places enumerated: unseen places are unqualified.
        loose_done = true;
        break;
      }
      last_looseness = candidate.looseness;
      if (!seen[candidate.place]) {
        seen[candidate.place] = true;
        const double s =
            Distance(query.location, kb.place_location(candidate.place));
        KspResultEntry entry;
        entry.place = candidate.place;
        entry.looseness = candidate.looseness;
        entry.spatial_distance = s;
        entry.score = ranking.Score(candidate.looseness, s);
        topk.Add(std::move(entry));
      }
    }

    // Pull from the spatial stream; random-access its looseness (TQSP).
    if (!spatial_done) {
      NearestIterator::Item item;
      bool got_spatial;
      {
        TraceSpan span(trace_, TracePhase::kRtreeNn);
        got_spatial = spatial.NextData(&item);
        span.AddItems(1);
        exec_->FoldIoDelta(spatial.io(), &folded_nn_io, stats_);
      }
      KSP_RETURN_NOT_OK(spatial.status());
      if (!got_spatial) {
        spatial_done = true;  // Every place seen.
        break;
      }
      last_spatial = item.distance;
      const PlaceId place = static_cast<PlaceId>(item.id);
      if (!seen[place]) {
        seen[place] = true;
        ++stats_->tqsp_computations;
        double looseness;
        {
          ScopedTimer semantic_timer(&semantic_seconds);
          TraceSpan span(trace_, TracePhase::kTqspCompute);
          looseness = exec_->ComputeTqsp(kb.place_vertex(place), ctx_,
                                         kInf, /*use_dynamic_bound=*/false,
                                         nullptr, stats_);
        }
        KSP_RETURN_NOT_OK(exec_->graph_cursor_.status);
        if (looseness != kInf) {
          KspResultEntry entry;
          entry.place = place;
          entry.looseness = looseness;
          entry.spatial_distance = item.distance;
          entry.score = ranking.Score(looseness, item.distance);
          topk.Add(std::move(entry));
        }
      }
    }

    // TA stopping rule: no unseen place can beat f(last_L, last_S).
    const double tau = ranking.Score(last_looseness, last_spatial);
    if (topk.Full() && topk.Threshold() <= tau) break;
  }

  KSP_RETURN_NOT_OK(spatial.status());
  stats_->rtree_nodes_accessed = spatial.nodes_accessed();
  KspResult result = std::move(topk).Finish();
  // Materialize the TQSP trees of the final answers only. A deadline can
  // also land here: FinishRun then discards the truncated trees.
  for (KspResultEntry& entry : result.entries) {
    if (!exec_->interrupt_status_.ok()) break;
    {
      ScopedTimer semantic_timer(&semantic_seconds);
      TraceSpan span(trace_, TracePhase::kTqspCompute);
      entry.tree.place = entry.place;
      exec_->ComputeTqsp(kb.place_vertex(entry.place), ctx_, kInf,
                         /*use_dynamic_bound=*/false, &entry.tree, nullptr);
    }
    KSP_RETURN_NOT_OK(exec_->graph_cursor_.status);
  }
  return result;
}

Result<KspResult> TaSearch::RunKeywordOnly(const KspQuery& query) {
  double& semantic_seconds = run_->semantic_seconds;
  const KnowledgeBase& kb = db_.kb();

  KspResult result;
  Candidate candidate{};
  while (result.entries.size() < query.k) {
    if (exec_->ScanStopped(run_)) break;
    bool got;
    {
      ScopedTimer semantic_timer(&semantic_seconds);
      TraceSpan span(trace_, TracePhase::kBfsExpand);
      got = NextByLooseness(&candidate);
      exec_->FoldCursorIo(&exec_->graph_cursor_.io, stats_);
    }
    KSP_RETURN_NOT_OK(exec_->graph_cursor_.status);
    if (!got) break;  // All qualified places enumerated.
    KspResultEntry entry;
    entry.place = candidate.place;
    entry.looseness = candidate.looseness;
    entry.spatial_distance =
        Distance(query.location, kb.place_location(candidate.place));
    entry.score = candidate.looseness;  // Ranking ignores location.
    entry.tree.place = candidate.place;
    {
      ScopedTimer semantic_timer(&semantic_seconds);
      TraceSpan span(trace_, TracePhase::kTqspCompute);
      exec_->ComputeTqsp(kb.place_vertex(candidate.place), ctx_, kInf,
                         /*use_dynamic_bound=*/false, &entry.tree,
                         nullptr);
    }
    KSP_RETURN_NOT_OK(exec_->graph_cursor_.status);
    result.entries.push_back(std::move(entry));
  }
  return result;
}

Result<KspResult> QueryExecutor::ExecuteKeywordOnly(const KspQuery& query,
                                                    QueryStats* stats) {
  QueryRun run(stats);
  KSP_RETURN_NOT_OK(BeginRun(query, /*scan=*/nullptr, &run));
  KspResult result;
  if (run.ctx.answerable && !run.ctx.terms.empty()) {
    TaSearch search(this, &run);
    KSP_ASSIGN_OR_RETURN(result, search.RunKeywordOnly(query));
  }
  return FinishRun(&run, std::move(result));
}

Result<KspResult> QueryExecutor::ExecuteTa(const KspQuery& query,
                                           QueryStats* stats) {
  if (query.keywords.empty()) {
    // No keywords: TA's looseness stream is degenerate; fall back to
    // the spatial-first algorithm (every place qualifies with L = 1).
    return ExecuteSpatialFirst(query, stats, false, false);
  }
  QueryRun run(stats);
  KSP_RETURN_NOT_OK(BeginRun(query, /*scan=*/nullptr, &run));
  KspResult result;
  if (run.ctx.answerable) {
    TaSearch search(this, &run);
    KSP_ASSIGN_OR_RETURN(result, search.Run(query));
  }
  return FinishRun(&run, std::move(result));
}

}  // namespace ksp
