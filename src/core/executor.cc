#include "core/executor.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <limits>

#include "common/logging.h"
#include "core/parallel_query.h"

namespace ksp {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// (parent, vertex) fused in one u64 frontier entry of the flat BFS
/// driver: the discovering edge carries its parent with it, so the edge
/// scan never touches the bfs_parent_ array and the pop writes the
/// parent exactly once per vertex.
constexpr uint64_t Entry(VertexId parent, VertexId vertex) {
  return (static_cast<uint64_t>(parent) << 32) | vertex;
}
constexpr VertexId EntryVertex(uint64_t e) {
  return static_cast<VertexId>(e);
}
constexpr VertexId EntryParent(uint64_t e) {
  return static_cast<VertexId>(e >> 32);
}

/// Ordering used by the top-k heap: ascending (score, place).
bool EntryBetter(const KspResultEntry& a, const KspResultEntry& b) {
  if (a.score != b.score) return a.score < b.score;
  return a.place < b.place;
}
}  // namespace

std::vector<VertexId> SemanticPlaceTree::TreeVertices() const {
  std::vector<VertexId> vertices;
  vertices.push_back(root);
  for (const auto& match : matches) {
    vertices.insert(vertices.end(), match.path.begin(), match.path.end());
  }
  std::sort(vertices.begin(), vertices.end());
  vertices.erase(std::unique(vertices.begin(), vertices.end()),
                 vertices.end());
  return vertices;
}

double TopKHeap::Threshold() const {
  if (k_ == 0) return -kInf;  // Nothing can enter a k = 0 result.
  return Full() ? entries_.front().score : kInf;
}

void TopKHeap::Add(KspResultEntry entry) {
  if (k_ == 0) return;
  auto worse = [](const KspResultEntry& a, const KspResultEntry& b) {
    return EntryBetter(a, b);  // max-heap on (score, place)
  };
  if (!Full()) {
    entries_.push_back(std::move(entry));
    std::push_heap(entries_.begin(), entries_.end(), worse);
    return;
  }
  if (EntryBetter(entry, entries_.front())) {
    std::pop_heap(entries_.begin(), entries_.end(), worse);
    entries_.back() = std::move(entry);
    std::push_heap(entries_.begin(), entries_.end(), worse);
  }
}

bool TopKHeap::WouldAdd(double score, PlaceId place) const {
  if (k_ == 0) return false;
  if (!Full()) return true;
  KspResultEntry probe;
  probe.place = place;
  probe.score = score;
  return EntryBetter(probe, entries_.front());
}

KspResult TopKHeap::Finish() && {
  KspResult result;
  result.entries = std::move(entries_);
  std::sort(result.entries.begin(), result.entries.end(), EntryBetter);
  return result;
}

QueryExecutor::QueryExecutor(const KspDatabase* db) : db_(db) {
  KSP_CHECK(db_ != nullptr);
  visit_epoch_.assign(db_->kb().num_vertices(), 0);
  bfs_parent_.assign(db_->kb().num_vertices(), kInvalidVertex);
  // The internal trace only feeds per-phase totals; keeping the span list
  // would grow unbounded with candidate count on the metrics-only path.
  internal_trace_.set_record_spans(false);
}

// Out of line: ~unique_ptr<IntraQueryPipeline> needs the complete type.
QueryExecutor::~QueryExecutor() = default;

IntraQueryPipeline* QueryExecutor::EnsurePipeline() {
  if (pipeline_ == nullptr ||
      pipeline_->num_workers() != intra_query_threads_) {
    pipeline_ =
        std::make_unique<IntraQueryPipeline>(db_, intra_query_threads_);
  }
  return pipeline_.get();
}

void QueryExecutor::set_metrics(MetricsRegistry* registry) {
  metrics_ = MetricsHandles{};
  metrics_.registry = registry;
  if (registry == nullptr) return;
  metrics_.queries = registry->GetCounter("ksp_queries_total");
  metrics_.timeouts = registry->GetCounter("ksp_query_timeouts_total");
  metrics_.tqsp = registry->GetCounter("ksp_tqsp_computations_total");
  metrics_.rtree_nodes =
      registry->GetCounter("ksp_rtree_nodes_accessed_total");
  metrics_.bfs_vertices =
      registry->GetCounter("ksp_bfs_vertices_visited_total");
  metrics_.reach_queries =
      registry->GetCounter("ksp_reachability_queries_total");
  for (int rule = 0; rule < 4; ++rule) {
    metrics_.pruned_rule[rule] = registry->GetCounter(
        "ksp_pruned_rule" + std::to_string(rule + 1) + "_total");
  }
  metrics_.wasted_tqsp =
      registry->GetCounter("ksp_speculative_wasted_tqsp_total");
  metrics_.cache_hits = registry->GetCounter("ksp_cache_hits_total");
  metrics_.cache_misses = registry->GetCounter("ksp_cache_misses_total");
  metrics_.cache_evictions =
      registry->GetCounter("ksp_cache_evictions_total");
  metrics_.cache_bytes = registry->GetGauge("ksp_cache_bytes_total");
  metrics_.bufferpool_hits =
      registry->GetCounter("ksp_bufferpool_hits_total");
  metrics_.bufferpool_misses =
      registry->GetCounter("ksp_bufferpool_misses_total");
  metrics_.bufferpool_evictions =
      registry->GetCounter("ksp_bufferpool_evictions_total");
  metrics_.wall_us = registry->GetCounter("ksp_query_wall_us_total");
  metrics_.semantic_us =
      registry->GetCounter("ksp_query_semantic_us_total");
  metrics_.cancellations =
      registry->GetCounter("ksp_query_cancellations_total");
  for (size_t p = 0; p < kNumTracePhases; ++p) {
    metrics_.phase_us[p] = registry->GetCounter(
        std::string("ksp_phase_") +
        TracePhaseName(static_cast<TracePhase>(p)) + "_us_total");
  }
  metrics_.latency_ms = registry->GetHistogram(
      "ksp_query_latency_ms", Histogram::DefaultLatencyBucketsMs());
}

void QueryExecutor::RecordQueryMetrics(const QueryStats& stats) {
  if (metrics_.registry == nullptr) return;
  metrics_.queries->Increment();
  if (!stats.completed) metrics_.timeouts->Increment();
  metrics_.tqsp->Increment(stats.tqsp_computations);
  metrics_.rtree_nodes->Increment(stats.rtree_nodes_accessed);
  metrics_.bfs_vertices->Increment(stats.vertices_visited);
  metrics_.reach_queries->Increment(stats.reachability_queries);
  metrics_.pruned_rule[0]->Increment(stats.pruned_unqualified);
  metrics_.pruned_rule[1]->Increment(stats.pruned_dynamic_bound);
  metrics_.pruned_rule[2]->Increment(stats.pruned_alpha_place);
  metrics_.pruned_rule[3]->Increment(stats.pruned_alpha_node);
  metrics_.wasted_tqsp->Increment(stats.speculative_wasted_tqsp);
  metrics_.cache_hits->Increment(stats.dg_cache_hits +
                                 stats.result_cache_hits);
  metrics_.cache_misses->Increment(stats.dg_cache_misses +
                                   stats.result_cache_misses);
  metrics_.cache_evictions->Increment(stats.cache_evictions);
  metrics_.bufferpool_hits->Increment(stats.bufferpool_hits);
  metrics_.bufferpool_misses->Increment(stats.bufferpool_misses);
  metrics_.bufferpool_evictions->Increment(stats.bufferpool_evictions);
  if (const SemanticQueryCache* cache = db_->semantic_cache();
      cache != nullptr) {
    metrics_.cache_bytes->Set(static_cast<double>(cache->TotalBytes()));
  }
  metrics_.wall_us->Increment(
      static_cast<uint64_t>(stats.total_ms * 1e3));
  metrics_.semantic_us->Increment(
      static_cast<uint64_t>(stats.semantic_ms * 1e3));
  metrics_.latency_ms->Observe(stats.total_ms);
  if (const QueryTrace* trace = active_trace(); trace != nullptr) {
    for (size_t p = 0; p < kNumTracePhases; ++p) {
      metrics_.phase_us[p]->Increment(static_cast<uint64_t>(
          trace->PhaseExclusiveUs(static_cast<TracePhase>(p))));
    }
  }
}

Status QueryExecutor::FinishInterrupted(QueryStats* st) {
  st->completed = false;
  if (metrics_.cancellations != nullptr) metrics_.cancellations->Increment();
  RecordQueryMetrics(*st);
  return interrupt_status_;
}

Status QueryExecutor::CheckPrepared() const {
  if (!db_->has_rtree()) {
    return Status::InvalidArgument(
        "database is not prepared: call KspDatabase::BuildRTree() / "
        "PrepareAll() / LoadIndexes() before executing queries");
  }
  // A disk backend that failed to spill must reject queries rather than
  // silently serving from memory.
  return db_->storage_backend_status();
}

void QueryExecutor::FoldIo(const PageIoCounters& io, QueryStats* stats) {
  if (io.IsZero()) return;
  if (stats != nullptr) stats->AddPageIo(io);
  if (QueryTrace* trace = active_trace(); trace != nullptr) {
    trace->AddChildTime(TracePhase::kPageIo, io.RoundedMicros(),
                        io.Fetches());
  }
}

void QueryExecutor::FoldIoDelta(const PageIoCounters& cumulative,
                                PageIoCounters* folded, QueryStats* stats) {
  FoldIo(cumulative.Since(*folded), stats);
  *folded = cumulative;
}

uint16_t QueryExecutor::BeginBfsEpoch() {
  if (++epoch_ == 0) {
    // uint16_t wraparound: every stored mark now collides with some future
    // epoch. Reset to a clean slate (0 is never handed out as an epoch).
    std::fill(visit_epoch_.begin(), visit_epoch_.end(), uint16_t{0});
    epoch_ = 1;
  }
  return epoch_;
}

Status QueryExecutor::PrepareContext(const KspQuery& query,
                                     QueryContext* ctx) const {
  ctx->query = &query;
  ctx->terms.clear();
  ctx->vertex_mask.Clear();
  ctx->postings.clear();
  ctx->owned_postings.clear();
  ctx->rarest_first.clear();
  ctx->answerable = true;
  ctx->io = PageIoCounters();

  // Deduplicate keywords, preserving query order.
  for (TermId t : query.keywords) {
    if (t == kInvalidTerm) {
      ctx->answerable = false;  // Unknown keyword: nothing can cover it.
      continue;
    }
    if (std::find(ctx->terms.begin(), ctx->terms.end(), t) ==
        ctx->terms.end()) {
      ctx->terms.push_back(t);
    }
  }
  if (ctx->terms.size() > 64) {
    return Status::InvalidArgument(
        "at most 64 distinct query keywords are supported");
  }
  const size_t m = ctx->terms.size();
  ctx->full_mask = (m == 64) ? ~uint64_t{0} : ((uint64_t{1} << m) - 1);

  // Load posting lists and build M_q.ψ (vertex -> covered-keyword mask).
  // The memory accessor hands out zero-copy views; disk accessors decode
  // into owned_postings (whose inner buffers stay put when the outer
  // vector grows) through the shared buffer pool.
  const PostingsAccessor& postings = db_->postings_accessor();
  ctx->postings.resize(m);
  size_t total_entries = 0;
  for (size_t i = 0; i < m; ++i) {
    ctx->owned_postings.emplace_back();
    std::span<const VertexId> view;
    KSP_RETURN_NOT_OK(postings.Fetch(ctx->terms[i],
                                     &ctx->owned_postings.back(), &view,
                                     &ctx->io));
    ctx->postings[i] = view;
    if (ctx->postings[i].empty()) ctx->answerable = false;
    total_entries += ctx->postings[i].size();
  }
  // Pre-size for the posting-entry total (an upper bound on distinct
  // vertices), so the fill below never rehashes. Vertex ids are the
  // dense universe, so the table also builds its presence filter and
  // the BFS answers the common no-keyword pop with one bit test.
  ctx->vertex_mask.Reset(total_entries, db_->kb().num_vertices());
  for (size_t i = 0; i < m; ++i) {
    for (VertexId v : ctx->postings[i]) {
      ctx->vertex_mask.OrInsert(v, uint64_t{1} << i);
    }
  }

  ctx->rarest_first.resize(m);
  for (size_t i = 0; i < m; ++i) ctx->rarest_first[i] = i;
  std::sort(ctx->rarest_first.begin(), ctx->rarest_first.end(),
            [&](uint32_t a, uint32_t b) {
              return ctx->postings[a].size() < ctx->postings[b].size();
            });
  return Status::OK();
}

double QueryExecutor::ComputeTqsp(VertexId root, const QueryContext& ctx,
                                  double looseness_threshold,
                                  bool use_dynamic_bound,
                                  SemanticPlaceTree* tree, QueryStats* stats,
                                  const TqspSpeculation* spec) {
  const uint32_t num_keywords =
      static_cast<uint32_t>(std::popcount(ctx.full_mask));
  uint64_t remaining = ctx.full_mask;
  double covered_sum = 0.0;

  struct Match {
    uint32_t keyword_index;
    VertexId vertex;
    uint32_t distance;
  };
  // Per-candidate scratch lives in the arena: after the first (largest)
  // candidate the whole TQSP construction does zero heap traffic.
  tqsp_arena_.Reset();
  ArenaVec<Match> matches(&tqsp_arena_);
  matches.reserve(num_keywords);

  // Epoch-tagged BFS with parent tracking for path reconstruction.
  const uint16_t epoch = BeginBfsEpoch();
  visit_epoch_[root] = epoch;
  bfs_parent_[root] = kInvalidVertex;

  const GraphAccessor& graph = db_->graph_accessor();
  const bool undirected = db_->options().undirected_edges;

  bool pruned = false;
  bool interrupted = false;
  // Pops accumulate in a register and fold into the stats once after the
  // loop — the committed vertices_visited is identical, without a
  // read-modify-write against the heap-resident stats on every pop.
  uint64_t pops = 0;

  // Per-pop body shared by both frontier drivers below; false means stop
  // (the flags and `remaining` say why). `qi` is the global pop index —
  // both drivers produce the identical pop sequence (FIFO within a BFS
  // level), so the cancellation cadence, stats counters, bound-log steps
  // and prune decisions are bit-identical across drivers.
  auto process_pop = [&](VertexId v, uint32_t dist, uint64_t qi) -> bool {
    // Cancellation poll every 64 pops: cheap enough to keep the BFS hot
    // loop tight, frequent enough that a deadline is enforced within one
    // phase-span granularity. An interrupted BFS proves nothing about
    // the unvisited remainder — see the cache-feed guard below.
    if ((qi & 0x3F) == 0 && CheckInterrupt()) {
      interrupted = true;
      return false;
    }
    ++pops;

    if (use_dynamic_bound) {
      if (spec != nullptr && spec->live_theta != nullptr) {
        // Speculative run: re-derive the Rule-2 threshold from the latest
        // committed θ. θ only decreases over the commit sequence, so the
        // threshold tightens monotonically and never drops below the exact
        // commit-time value — a speculative abort implies the sequential
        // run aborts too (the commit stage replays where).
        const double live = spec->ranking->LoosenessThreshold(
            spec->live_theta->load(std::memory_order_relaxed),
            spec->spatial_distance);
        if (live < looseness_threshold) looseness_threshold = live;
      }
      // Lemma 1: every undiscovered keyword lies at distance >= dist.
      double lower_bound =
          1.0 + covered_sum +
          static_cast<double>(dist) *
              static_cast<double>(std::popcount(remaining));
      if (spec != nullptr && spec->bound_log != nullptr) {
        std::vector<TqspBoundStep>& log = *spec->bound_log;
        if (log.empty() || lower_bound > log.back().bound) {
          log.push_back(TqspBoundStep{qi, lower_bound});
        }
      }
      if (lower_bound >= looseness_threshold) {
        pruned = true;  // Pruning Rule 2.
        return false;
      }
    }

    uint64_t mask = ctx.MaskOf(v) & remaining;
    if (mask != 0) {
      covered_sum +=
          static_cast<double>(dist) *
          static_cast<double>(std::popcount(mask));
      uint64_t bits = mask;
      while (bits != 0) {
        uint32_t i = static_cast<uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
        matches.push_back(Match{i, v, dist});
      }
      remaining &= ~mask;
      if (remaining == 0) return false;
    }
    return true;
  };

  if (db_->options().bfs_frontier == BfsFrontier::kLegacy) {
    // Legacy driver (the A/B baseline): one growing (vertex, distance)
    // queue popped by index.
    std::vector<std::pair<VertexId, uint32_t>> queue;
    queue.emplace_back(root, 0);
    for (size_t qi = 0; qi < queue.size() && remaining != 0; ++qi) {
      auto [v, dist] = queue[qi];
      if (!process_pop(v, dist, qi)) break;
      for (VertexId w : graph.OutNeighbors(v, &graph_cursor_)) {
        if (visit_epoch_[w] != epoch) {
          visit_epoch_[w] = epoch;
          bfs_parent_[w] = v;
          queue.emplace_back(w, dist + 1);
        }
      }
      if (undirected) {
        for (VertexId w : graph.InNeighbors(v, &graph_cursor_)) {
          if (visit_epoch_[w] != epoch) {
            visit_epoch_[w] = epoch;
            bfs_parent_[w] = v;
            queue.emplace_back(w, dist + 1);
          }
        }
      }
    }
  } else {
    // Flat driver: level-synchronous frontiers of bare vertex ids (the
    // level counter is the distance), with a neighbor-span prefetch a
    // few pops ahead in the current frontier. Capacity persists across
    // candidates in the executor scratch. On the memory backend the CSR
    // is read directly, skipping the per-pop virtual dispatch.
    //
    // Both buffers are sized to the vertex count up front: a vertex is
    // discovered at most once per epoch, so the raw `nxt[nxt_n] = ...`
    // writes below can never overflow, and the hot loop carries neither
    // push_back's capacity branch nor any reload of the vectors' members
    // (base pointers and sizes live in locals the stores cannot alias —
    // with member access the compiler must assume every push invalidates
    // frontier_.data()/size() and re-read them each edge).
    //
    // The edge scan is deliberately branchless. The classic
    //   if (epochs[w] != epoch) { mark; record parent; push }
    // stalls on one unpredictable branch per edge whose outcome depends
    // on a random L1-missing load — the mispredicts serialize what are
    // otherwise ~degree independent cache misses, and they bound the
    // whole TQSP construction (measured: the executor runs at the raw
    // BFS substrate's ns/pop, so only this pattern can be the limiter).
    // Instead every edge does an idempotent `epochs[w] = epoch` store
    // and a conditionally-advanced append `nxt_n += fresh`, so the loop
    // has no data-dependent control flow and the out-of-order window
    // overlaps the misses. The parent does not go to a second random
    // array touch per edge: frontier entries are (parent, vertex) fused
    // in a u64, and the pop writes bfs_parent_ once per vertex. The
    // first discoverer still wins — later edges to the same vertex see
    // fresh == false and never advance the cursor — so pop order,
    // parents, and every counter stay bit-identical to the legacy
    // driver.
    const Graph* csr = graph.memory_graph();
    const size_t total_vertices = visit_epoch_.size();
    if (frontier_.size() < total_vertices) {
      frontier_.resize(total_vertices);
      next_frontier_.resize(total_vertices);
    }
    uint64_t* cur = frontier_.data();
    uint64_t* nxt = next_frontier_.data();
    uint16_t* const epochs = visit_epoch_.data();
    VertexId* const parents = bfs_parent_.data();
    cur[0] = Entry(kInvalidVertex, root);
    size_t cur_n = 1;
    size_t nxt_n = 0;
    constexpr size_t kPrefetchAhead = 8;
    uint64_t qi = 0;
    uint32_t dist = 0;
    bool stop = remaining == 0;
    while (!stop && cur_n > 0) {
      for (size_t j = 0; j < cur_n; ++j, ++qi) {
        if (j + kPrefetchAhead < cur_n) {
          const VertexId ahead = EntryVertex(cur[j + kPrefetchAhead]);
          if (csr != nullptr) {
            csr->PrefetchOut(ahead);
          } else {
            graph.Prefetch(ahead, &graph_cursor_);
          }
        }
        const VertexId v = EntryVertex(cur[j]);
        parents[v] = EntryParent(cur[j]);
        if (!process_pop(v, dist, qi)) {
          stop = true;
          break;
        }
        const uint64_t tagged = Entry(v, 0);
        const std::span<const VertexId> out =
            csr != nullptr ? csr->OutNeighbors(v)
                           : graph.OutNeighbors(v, &graph_cursor_);
        for (VertexId w : out) {
          const bool fresh = epochs[w] != epoch;
          epochs[w] = epoch;
          nxt[nxt_n] = tagged | w;
          nxt_n += fresh;
        }
        if (undirected) {
          const std::span<const VertexId> in =
              csr != nullptr ? csr->InNeighbors(v)
                             : graph.InNeighbors(v, &graph_cursor_);
          for (VertexId w : in) {
            const bool fresh = epochs[w] != epoch;
            epochs[w] = epoch;
            nxt[nxt_n] = tagged | w;
            nxt_n += fresh;
          }
        }
      }
      std::swap(cur, nxt);
      cur_n = nxt_n;
      nxt_n = 0;
      ++dist;
    }
  }

  if (stats != nullptr) stats->vertices_visited += pops;
  if (pruned && stats != nullptr) ++stats->pruned_dynamic_bound;
  FoldCursorIo(&graph_cursor_.io, stats);

  // Feed the shared dg cache (DESIGN.md §9). Every recorded match is the
  // exact minimal distance — BFS pops in non-decreasing distance and a
  // keyword is recorded at its first covering pop — even when Rule 2 (or
  // a speculative live-θ abort, or a cancellation) stopped the search
  // afterwards. An un-pruned, un-interrupted exhaustion additionally
  // proves the uncovered keywords unreachable, which is cached as
  // kUnreachable (a negative answer); a cancelled BFS must NOT record
  // that negative — its frontier simply never got there. A page-read
  // failure truncated the expansion: nothing this run recorded is
  // trustworthy, and the query is about to fail anyway.
  if (SemanticQueryCache* cache = db_->semantic_cache();
      cache != nullptr && graph_cursor_.status.ok()) {
    size_t evicted = 0;
    for (const Match& m : matches) {
      evicted +=
          cache->InsertDistance(root, ctx.terms[m.keyword_index],
                                cache_epoch_,
                                static_cast<HopDistance>(m.distance));
    }
    if (!pruned && !interrupted && remaining != 0) {
      uint64_t bits = remaining;
      while (bits != 0) {
        const uint32_t i = static_cast<uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
        evicted += cache->InsertDistance(root, ctx.terms[i], cache_epoch_,
                                         kUnreachable);
      }
    }
    if (stats != nullptr) stats->cache_evictions += evicted;
  }

  if (remaining != 0) return kInf;  // Pruned or unqualified.

  const double looseness = 1.0 + covered_sum;
  if (tree != nullptr) {
    tree->root = root;
    tree->looseness = looseness;
    tree->matches.clear();
    tree->matches.reserve(matches.size());
    ArenaVec<VertexId> reversed(&tqsp_arena_);
    for (const Match& m : matches) {
      SemanticPlaceTree::KeywordMatch km;
      km.term = ctx.terms[m.keyword_index];
      km.vertex = m.vertex;
      km.distance = m.distance;
      // Reconstruct the root-to-vertex path via BFS parents.
      reversed.clear();
      for (VertexId v = m.vertex; v != kInvalidVertex; v = bfs_parent_[v]) {
        reversed.push_back(v);
        if (v == root) break;
      }
      km.path.assign(std::make_reverse_iterator(reversed.end()),
                     std::make_reverse_iterator(reversed.begin()));
      tree->matches.push_back(std::move(km));
    }
  }
  return looseness;
}

bool QueryExecutor::IsUnqualifiedPlace(VertexId root,
                                       const QueryContext& ctx,
                                       QueryStats* stats) const {
  const ReachabilityIndex* reach = db_->reachability_index();
  KSP_DCHECK(reach != nullptr);
  // Infrequent keywords are the most selective: test them first (§4.1).
  for (uint32_t i : ctx.rarest_first) {
    if (stats != nullptr) ++stats->reachability_queries;
    if (!reach->Reaches(root, ctx.terms[i])) return true;
  }
  return false;
}

QueryExecutor::CachedTqsp QueryExecutor::TryCachedTqsp(
    VertexId root, PlaceId place, const QueryContext& ctx,
    double looseness_threshold, bool use_rule2, const TopKHeap& heap,
    double spatial, double* looseness) const {
  SemanticQueryCache* cache = db_->semantic_cache();
  if (cache == nullptr) return CachedTqsp::kMiss;
  double l = 1.0;
  for (TermId t : ctx.terms) {
    HopDistance d = 0;
    if (!cache->LookupDistance(root, t, cache_epoch_, &d)) {
      return CachedTqsp::kMiss;
    }
    if (d == kUnreachable) {
      *looseness = kInf;
      return CachedTqsp::kUnqualified;
    }
    l += static_cast<double>(d);
  }
  *looseness = l;
  // Exactly the sequential Rule-2 outcome: the BFS aborts via the
  // dynamic bound iff L >= the threshold (see DESIGN.md §9 — at the pop
  // that would cover the last keyword, Lemma 1's bound equals L).
  if (use_rule2 && l >= looseness_threshold) {
    return CachedTqsp::kPrunedRule2;
  }
  if (heap.WouldAdd(db_->options().ranking.Score(l, spatial), place)) {
    // The entry would enter the top-k, which needs the materialized
    // tree — only the BFS can build it.
    return CachedTqsp::kMiss;
  }
  return CachedTqsp::kRejected;
}

Result<TiedSemanticPlace> QueryExecutor::ComputeTqspAlternatives(
    PlaceId place, const KspQuery& query) {
  TiedSemanticPlace out;
  out.place = place;
  out.root = db_->kb().place_vertex(place);
  KSP_RETURN_NOT_OK(db_->storage_backend_status());
  interrupt_status_ = Status::OK();
  graph_cursor_.ResetIo();
  QueryContext ctx;
  KSP_RETURN_NOT_OK(PrepareContext(query, &ctx));
  FoldIo(ctx.io, nullptr);
  if (!ctx.answerable) return out;

  const size_t m = ctx.terms.size();
  // min_dist[i] = dg(p, t_i) once discovered.
  std::vector<uint32_t> min_dist(m, kUnreachable);
  std::vector<std::vector<VertexId>> alternatives(m);
  size_t found = 0;

  const uint16_t epoch = BeginBfsEpoch();
  visit_epoch_[out.root] = epoch;
  std::vector<std::pair<VertexId, uint32_t>> queue;
  queue.emplace_back(out.root, 0);
  const GraphAccessor& graph = db_->graph_accessor();
  const bool undirected = db_->options().undirected_edges;

  for (size_t qi = 0; qi < queue.size(); ++qi) {
    if ((qi & 0x3F) == 0 && CheckInterrupt()) break;
    auto [v, dist] = queue[qi];
    // Stop once all keywords are found and BFS has moved past the last
    // minimum distance (no further ties possible).
    if (found == m) {
      uint32_t max_min = 0;
      for (uint32_t d : min_dist) max_min = std::max(max_min, d);
      if (dist > max_min) break;
    }
    uint64_t mask = ctx.MaskOf(v);
    while (mask != 0) {
      uint32_t i = static_cast<uint32_t>(std::countr_zero(mask));
      mask &= mask - 1;
      if (min_dist[i] == kUnreachable) {
        min_dist[i] = dist;
        ++found;
      }
      if (dist == min_dist[i]) alternatives[i].push_back(v);
    }
    for (VertexId w : graph.OutNeighbors(v, &graph_cursor_)) {
      if (visit_epoch_[w] != epoch) {
        visit_epoch_[w] = epoch;
        queue.emplace_back(w, dist + 1);
      }
    }
    if (undirected) {
      for (VertexId w : graph.InNeighbors(v, &graph_cursor_)) {
        if (visit_epoch_[w] != epoch) {
          visit_epoch_[w] = epoch;
          queue.emplace_back(w, dist + 1);
        }
      }
    }
  }
  FoldCursorIo(&graph_cursor_.io, nullptr);
  KSP_RETURN_NOT_OK(graph_cursor_.status);
  KSP_RETURN_NOT_OK(interrupt_status_);

  if (found != m) return out;  // Unqualified.
  out.looseness = 1.0;
  out.keywords.resize(m);
  for (size_t i = 0; i < m; ++i) {
    out.looseness += min_dist[i];
    out.keywords[i].term = ctx.terms[i];
    out.keywords[i].distance = min_dist[i];
    out.keywords[i].vertices = std::move(alternatives[i]);
  }
  return out;
}

Result<SemanticPlaceTree> QueryExecutor::ComputeTqspForPlace(
    PlaceId place, const KspQuery& query) {
  SemanticPlaceTree tree;
  tree.place = place;
  tree.root = db_->kb().place_vertex(place);
  KSP_RETURN_NOT_OK(db_->storage_backend_status());
  interrupt_status_ = Status::OK();
  const SemanticQueryCache* cache = db_->semantic_cache();
  cache_epoch_ = cache != nullptr ? cache->epoch() : 0;
  graph_cursor_.ResetIo();
  QueryContext ctx;
  KSP_RETURN_NOT_OK(PrepareContext(query, &ctx));
  FoldIo(ctx.io, nullptr);
  if (!ctx.answerable) return tree;
  ComputeTqsp(tree.root, ctx, kInf, /*use_dynamic_bound=*/false, &tree,
              nullptr);
  KSP_RETURN_NOT_OK(graph_cursor_.status);
  KSP_RETURN_NOT_OK(interrupt_status_);
  tree.place = place;
  return tree;
}

}  // namespace ksp
