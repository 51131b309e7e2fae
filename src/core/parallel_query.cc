#include "core/parallel_query.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "common/timer.h"
#include "core/alpha_stream.h"
#include "spatial/rtree.h"

namespace ksp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Stream granularity of the spatial-first producer: one lock round-trip
/// and one trace span per batch.
constexpr size_t kProducerBatchSize = 32;

/// Member-wise `cumulative - *snapshot`, advancing the snapshot — the
/// producer folds cumulative iterator/cursor counters incrementally so
/// each delta lands in the trace exactly once.
PageIoCounters TakeIoDelta(const PageIoCounters& cumulative,
                           PageIoCounters* snapshot) {
  const PageIoCounters delta = cumulative.Since(*snapshot);
  *snapshot = cumulative;
  return delta;
}

}  // namespace

IntraQueryPipeline::IntraQueryPipeline(const KspDatabase* db,
                                       uint32_t num_workers)
    : db_(db) {
  KSP_CHECK(db_ != nullptr);
  KSP_CHECK(num_workers >= 1);
  worker_execs_.reserve(num_workers);
  for (uint32_t i = 0; i < num_workers; ++i) {
    worker_execs_.push_back(std::make_unique<QueryExecutor>(db));
  }
  worker_traces_.reserve(num_workers);
  for (uint32_t i = 0; i < num_workers; ++i) {
    worker_traces_.push_back(std::make_unique<QueryTrace>());
    worker_traces_.back()->set_record_spans(false);
  }
  producer_trace_.set_record_spans(false);
  worker_semantic_s_.assign(num_workers, 0.0);
  ring_.resize(std::max<size_t>(64, 4 * static_cast<size_t>(num_workers)));
  threads_.reserve(num_workers + 1);
  for (size_t i = 0; i < num_workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
  threads_.emplace_back([this] { ProducerLoop(); });
}

IntraQueryPipeline::~IntraQueryPipeline() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void IntraQueryPipeline::ProducerLoop() {
  uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock,
             [&] { return shutdown_ || generation_ != seen_generation; });
    if (shutdown_) return;
    seen_generation = generation_;
    const bool alpha_ordered = alpha_ordered_;
    lock.unlock();
    const Status status =
        alpha_ordered ? ProduceAlphaOrdered() : ProduceSpatialFirst();
    lock.lock();
    producer_page_io_.Add(producer_cursor_.io);
    producer_cursor_.io = PageIoCounters();
    if (!status.ok() && run_status_.ok()) run_status_ = status;
    producer_done_ = true;
    --active_;
    cv_.notify_all();
  }
}

void IntraQueryPipeline::WorkerLoop(size_t worker_index) {
  uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock,
             [&] { return shutdown_ || generation_ != seen_generation; });
    if (shutdown_) return;
    seen_generation = generation_;
    for (;;) {
      Slot* claimed = nullptr;
      while (claim_cursor_ < produced_) {
        Slot& slot = ring_[claim_cursor_ % ring_.size()];
        ++claim_cursor_;
        if (slot.state == SlotState::kProduced) {
          slot.state = SlotState::kClaimed;
          claimed = &slot;
          break;
        }
      }
      if (claimed == nullptr) {
        // Cursor has caught up with production: either the run is over or
        // the producer is still streaming.
        if (stop_ || producer_done_) break;
        cv_.wait(lock);
        continue;
      }
      lock.unlock();
      ProcessCandidate(worker_index, claimed);
      lock.lock();
      claimed->state = SlotState::kDone;
      cv_.notify_all();  // The commit stage may be waiting on this slot.
    }
    --active_;
    cv_.notify_all();
  }
}

bool IntraQueryPipeline::EmitSlot(std::unique_lock<std::mutex>& lock,
                                  bool is_node, uint64_t id, double spatial,
                                  double score_bound, uint64_t rtree_nodes) {
  cv_.wait(lock,
           [&] { return stop_ || produced_ - committed_ < ring_.size(); });
  if (stop_) return false;
  Slot& slot = ring_[produced_ % ring_.size()];
  slot.seq = produced_;
  slot.is_node = is_node;
  slot.spatial = spatial;
  slot.score_bound = score_bound;
  slot.rtree_nodes = rtree_nodes;
  if (is_node) {
    slot.place = kInvalidPlace;
    slot.root = kInvalidVertex;
    slot.state = SlotState::kDone;  // Nothing for a worker to do.
  } else {
    slot.place = static_cast<PlaceId>(id);
    slot.root = db_->kb().place_vertex(slot.place);
    slot.state = SlotState::kProduced;
    slot.result = SpecResult();
  }
  ++produced_;
  cv_.notify_all();
  return true;
}

Status IntraQueryPipeline::ProduceSpatialFirst() {
  const RankingFunction& ranking = db_->options().ranking;
  QueryTrace* ptrace = tracing_ ? &producer_trace_ : nullptr;
  NearestIterator iterator(db_->spatial_accessor(), query_->location);
  // A stream item and the iterator's nodes-accessed count right after it
  // popped: the exact value a sequential scan stopping on it reports.
  struct Popped {
    NearestIterator::Item item;
    uint64_t nodes_accessed = 0;
  };
  std::vector<Popped> batch;
  batch.reserve(kProducerBatchSize);
  PageIoCounters io_snapshot;
  bool stop_stream = false;
  while (!stop_stream) {
    batch.clear();
    {
      TraceSpan span(ptrace, TracePhase::kRtreeNn);
      Popped popped;
      while (batch.size() < kProducerBatchSize &&
             iterator.Next(&popped.item)) {
        popped.nodes_accessed = iterator.nodes_accessed();
        batch.push_back(popped);
      }
      span.AddItems(batch.size());
      const PageIoCounters delta = TakeIoDelta(iterator.io(), &io_snapshot);
      if (ptrace != nullptr && !delta.IsZero()) {
        ptrace->AddChildTime(TracePhase::kPageIo, delta.RoundedMicros(),
                             delta.Fetches());
      }
      producer_cursor_.io.Add(delta);
    }
    if (batch.empty()) break;
    std::unique_lock<std::mutex> lock(mu_);
    for (const Popped& p : batch) {
      const double score_bound =
          ranking.MinScoreGivenSpatialDistance(p.item.distance);
      if (!EmitSlot(lock, p.item.is_node, p.item.id, p.item.distance,
                    score_bound, p.nodes_accessed)) {
        return Status::OK();  // Run stopped (commit terminated/timed out).
      }
      // Sound early stop: θ only decreases, so if this item's bound
      // already meets the current θ it meets the (no larger) exact
      // commit-time θ too — the ordered commit terminates at or before
      // the item just emitted, and the rest of the stream is dead.
      if (score_bound >= theta_.load(std::memory_order_relaxed)) {
        stop_stream = true;
        break;
      }
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Exact "R-tree nodes accessed" for the stream-exhausted case (commit
  // uses per-item snapshots for every other termination).
  producer_rtree_nodes_ = iterator.nodes_accessed();
  return iterator.status();
}

Status IntraQueryPipeline::ProduceAlphaOrdered() {
  const KspOptions& options = db_->options();
  const SpatialAccessor& rtree = *db_->spatial_accessor();
  QueryTrace* ptrace = tracing_ ? &producer_trace_ : nullptr;
  // Snapshot of producer_cursor_.io already credited to ptrace — reads
  // fold their delta into the trace right where they happen, while the
  // cumulative counters ride in the cursor until the producer parks.
  PageIoCounters io_snapshot;
  auto fold_read_io = [&] {
    const PageIoCounters delta = TakeIoDelta(producer_cursor_.io,
                                             &io_snapshot);
    if (ptrace != nullptr && !delta.IsZero()) {
      ptrace->AddChildTime(TracePhase::kPageIo, delta.RoundedMicros(),
                           delta.Fetches());
    }
  };

  // The same stream the sequential SP loop drains, so the pop order is
  // the sequential one.
  AlphaStream stream(rtree, *db_->alpha_index(), options.ranking,
                     query_->location, ctx_->terms);
  const Status root_status = stream.PushRoot(&producer_cursor_);
  fold_read_io();
  KSP_RETURN_NOT_OK(root_status);

  while (!stream.empty()) {
    const AlphaQueueItem item = stream.Pop();

    if (!item.is_node) {
      std::unique_lock<std::mutex> lock(mu_);
      if (!EmitSlot(lock, /*is_node=*/false, item.id, item.spatial_lb,
                    item.score_bound, 0)) {
        return Status::OK();
      }
      // Same sound early stop as the spatial producer.
      if (item.score_bound >= theta_.load(std::memory_order_relaxed)) {
        return Status::OK();
      }
      continue;
    }

    // Node pop: the termination test, the node-access count, and the
    // Rule-3/4 push gates below all need the *exact* θ. Barrier until
    // every emitted place has committed — θ is then final for this point
    // of the stream and, with no uncommitted places outstanding and none
    // emitted during expansion, cannot change until the next place.
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || committed_ == produced_; });
      if (stop_) return Status::OK();
      if (total_timer_->ElapsedMillis() > options.time_limit_ms) {
        producer_timeout_ = true;
        return Status::OK();
      }
      if (item.score_bound >= theta_.load(std::memory_order_relaxed)) {
        // Termination (Algorithm 4, line 9): node not counted.
        return Status::OK();
      }
      ++producer_rtree_nodes_;
    }
    const double theta = theta_.load(std::memory_order_relaxed);
    TraceSpan span(ptrace, TracePhase::kRtreeNn);
    SpatialNodeRef node;
    const Status node_status = rtree.ReadNode(
        static_cast<uint32_t>(item.id), &producer_cursor_, &node);
    fold_read_io();
    KSP_RETURN_NOT_OK(node_status);
    span.AddItems(node.entries.size());
    stream.PushChildren(node, theta, [&](const AlphaQueueItem& child,
                                         double /*looseness_bound*/) {
      // Pruning Rule 4 (subtree) or Rule 3 (place).
      ++(child.is_node ? producer_pruned_rule4_ : producer_pruned_rule3_);
    });
  }
  return Status::OK();
}

void IntraQueryPipeline::ProcessCandidate(size_t worker_index, Slot* slot) {
  QueryExecutor* exec = worker_execs_[worker_index].get();
  QueryTrace* wtrace = tracing_ ? worker_traces_[worker_index].get() : nullptr;
  const KspOptions& options = db_->options();
  SpecResult& r = slot->result;
  QueryStats local;
  if (use_rule1_) {
    // Rule 1 is θ-independent, so the probe (and its rarest-first
    // short-circuit count) is already exact for committed candidates.
    TraceSpan span(wtrace, TracePhase::kRule1Prune);
    r.rule1_unqualified = exec->IsUnqualifiedPlace(slot->root, *ctx_, &local);
    r.reach_queries = local.reachability_queries;
    if (r.rule1_unqualified) return;
  }
  spec_tqsp_runs_.fetch_add(1, std::memory_order_relaxed);
  double looseness_threshold = kInf;
  TqspSpeculation spec;
  const TqspSpeculation* spec_ptr = nullptr;
  if (use_rule2_) {
    looseness_threshold = options.ranking.LoosenessThreshold(
        theta_.load(std::memory_order_relaxed), slot->spatial);
    spec.live_theta = &theta_;
    spec.ranking = &options.ranking;
    spec.spatial_distance = slot->spatial;
    spec.bound_log = &r.bound_log;
    spec_ptr = &spec;
  }
  r.tree.place = slot->place;
  {
    ScopedTimer semantic_timer(&worker_semantic_s_[worker_index]);
    TraceSpan span(wtrace, TracePhase::kTqspCompute);
    r.looseness =
        exec->ComputeTqsp(slot->root, *ctx_, looseness_threshold, use_rule2_,
                          &r.tree, &local, spec_ptr);
    span.AddItems(local.vertices_visited);
  }
  r.visits = local.vertices_visited;
  // Workers never consult the dg cache (the commit-time replay depends on
  // the BFS having run), but their ComputeTqsp calls do insert into it;
  // surface the evictions those inserts caused.
  if (local.cache_evictions != 0) {
    spec_cache_evictions_.fetch_add(local.cache_evictions,
                                    std::memory_order_relaxed);
  }
  // Disk backend: the worker's BFS page-I/O was folded into `local` by
  // ComputeTqsp; surface it run-wide (interleaving-dependent, like the
  // wasted-speculation count).
  if (local.bufferpool_hits != 0 || local.bufferpool_misses != 0 ||
      local.bufferpool_evictions != 0) {
    spec_bufferpool_hits_.fetch_add(local.bufferpool_hits,
                                    std::memory_order_relaxed);
    spec_bufferpool_misses_.fetch_add(local.bufferpool_misses,
                                      std::memory_order_relaxed);
    spec_bufferpool_evictions_.fetch_add(local.bufferpool_evictions,
                                         std::memory_order_relaxed);
  }
}

void IntraQueryPipeline::CommitCandidate(Slot* slot, TopKHeap* heap,
                                         QueryStats* st, QueryTrace* trace) {
  const KspOptions& options = db_->options();
  SpecResult& r = slot->result;
  st->reachability_queries += r.reach_queries;
  if (use_rule1_ && r.rule1_unqualified) {
    ++st->pruned_unqualified;  // Pruning Rule 1 (exact: θ-independent).
    return;
  }
  ++st->tqsp_computations;
  if (use_rule2_) {
    const double looseness_threshold =
        options.ranking.LoosenessThreshold(heap->Threshold(), slot->spatial);
    // Replay the monotone bound trajectory against the exact commit-time
    // threshold: the bound is constant between recorded steps, so the
    // first step with bound >= threshold is precisely the pop at which
    // the sequential BFS aborts (Pruning Rule 2). A speculative abort
    // always lands here — the worker's thresholds were all >= this one.
    auto step = std::lower_bound(
        r.bound_log.begin(), r.bound_log.end(), looseness_threshold,
        [](const TqspBoundStep& s, double t) { return s.bound < t; });
    if (step != r.bound_log.end()) {
      ++st->pruned_dynamic_bound;
      st->vertices_visited += step->pop_index + 1;  // Abort pop counted.
      if (trace != nullptr) trace->RecordEvent(TracePhase::kRule2Prune);
      return;
    }
  }
  // No replay hit: the worker necessarily ran the BFS to completion, so
  // its visit count and looseness are the sequential ones.
  st->vertices_visited += r.visits;
  if (r.looseness == kInf) return;  // Unqualified place.
  KspResultEntry entry;
  entry.place = slot->place;
  entry.looseness = r.looseness;
  entry.spatial_distance = slot->spatial;
  entry.score = options.ranking.Score(r.looseness, slot->spatial);
  entry.tree = std::move(r.tree);
  heap->Add(std::move(entry));
}

void IntraQueryPipeline::CommitLoop(std::unique_lock<std::mutex>& lock,
                                    const Timer& total_timer, TopKHeap* heap,
                                    QueryStats* st, QueryTrace* trace) {
  const KspOptions& options = db_->options();
  // Sole interruption authority of the run. A worker whose BFS was cut
  // short reports +inf looseness, which would commit as "unqualified" —
  // a wrong answer, not just a slow one. The token is sticky, so a trip
  // any worker observed before marking its slot kDone is visible here
  // (slot-done is published under mu_), and checking before every commit
  // keeps cut-short speculation out of the heap. A trip first observed
  // *after* the stream already committed to completion changes nothing:
  // the result is complete and is returned as such.
  auto interrupted = [&]() -> bool {
    if (run_cancel_ == nullptr) return false;
    Status s = run_cancel_->Check();
    if (!s.ok()) {
      if (run_status_.ok()) run_status_ = std::move(s);
      return true;
    }
    return false;
  };
  for (;;) {
    cv_.wait(lock, [&] { return committed_ < produced_ || producer_done_; });
    if (committed_ == produced_) {
      // Stream over: exhausted, or terminated/timed out producer-side
      // (SP node pops — exact behind the barrier).
      st->rtree_nodes_accessed = producer_rtree_nodes_;
      if (producer_timeout_) st->completed = false;
      if (interrupted()) st->completed = false;
      return;
    }
    Slot& slot = ring_[committed_ % ring_.size()];
    // Stops the run on this slot, with the node count the sequential scan
    // reports there: the slot's snapshot (spatial-first) or the count
    // kept behind the SP barrier.
    auto stop_here = [&](bool completed) {
      if (!completed) st->completed = false;
      st->rtree_nodes_accessed =
          alpha_ordered_ ? producer_rtree_nodes_ : slot.rtree_nodes;
    };
    // Same per-item order as the sequential loops: timeout first, then
    // the ascending-bound termination test, then the candidate itself.
    if (total_timer.ElapsedMillis() > options.time_limit_ms ||
        interrupted()) {
      stop_here(/*completed=*/false);
      return;
    }
    if (slot.score_bound >= heap->Threshold()) {
      stop_here(/*completed=*/true);
      return;
    }
    if (!slot.is_node) {
      cv_.wait(lock, [&] { return slot.state == SlotState::kDone; });
      if (interrupted()) {
        stop_here(/*completed=*/false);
        return;
      }
      CommitCandidate(&slot, heap, st, trace);
      theta_.store(heap->Threshold(), std::memory_order_relaxed);
    }
    ++committed_;
    cv_.notify_all();
  }
}

Status IntraQueryPipeline::Run(const QueryExecutor::PlaceScan& scan,
                               QueryExecutor::QueryRun* run, TopKHeap* heap,
                               CancellationToken* cancel,
                               uint64_t cache_epoch) {
  QueryStats* stats = run->st;
  QueryTrace* trace = run->trace;
  std::unique_lock<std::mutex> lock(mu_);
  alpha_ordered_ = scan.alpha_ordered;
  query_ = run->ctx.query;
  ctx_ = &run->ctx;
  use_rule1_ = scan.use_rule1;
  use_rule2_ = scan.use_rule2;
  total_timer_ = &run->total_timer;
  run_cancel_ = cancel;
  tracing_ = trace != nullptr;
  produced_ = committed_ = claim_cursor_ = 0;
  producer_done_ = producer_timeout_ = stop_ = false;
  producer_rtree_nodes_ = producer_pruned_rule3_ = producer_pruned_rule4_ = 0;
  producer_cursor_.io = PageIoCounters();
  producer_page_io_ = PageIoCounters();
  run_status_ = Status::OK();
  theta_.store(heap->Threshold(), std::memory_order_relaxed);
  spec_tqsp_runs_.store(0, std::memory_order_relaxed);
  spec_cache_evictions_.store(0, std::memory_order_relaxed);
  spec_bufferpool_hits_.store(0, std::memory_order_relaxed);
  spec_bufferpool_misses_.store(0, std::memory_order_relaxed);
  spec_bufferpool_evictions_.store(0, std::memory_order_relaxed);
  producer_trace_.Clear();
  for (size_t i = 0; i < worker_traces_.size(); ++i) {
    worker_traces_[i]->Clear();
    worker_semantic_s_[i] = 0.0;
    // Workers fold their BFS page-I/O through their executor's active
    // trace; point it at the per-worker aggregate (or detach when the
    // run is untraced) and clear any sticky error from a prior run.
    worker_execs_[i]->set_trace(tracing_ ? worker_traces_[i].get() : nullptr);
    worker_execs_[i]->graph_cursor_.ResetIo();
    // Share the run's token so worker BFS loops stop early on a trip
    // (set_cancellation also clears the sticky interrupt of a prior run)
    // and pin the workers' dg-cache inserts to the driving executor's
    // epoch snapshot.
    worker_execs_[i]->set_cancellation(run_cancel_);
    worker_execs_[i]->cache_epoch_ = cache_epoch;
  }
  active_ = worker_execs_.size() + 1;
  ++generation_;
  cv_.notify_all();

  CommitLoop(lock, run->total_timer, heap, stats, trace);

  // Quiesce: in-flight speculation finishes, producer and workers park.
  stop_ = true;
  cv_.notify_all();
  cv_.wait(lock, [&] { return active_ == 0; });

  // Detach the caller-owned token before Run returns — it must not
  // dangle into the next run (which may carry no token at all).
  for (const auto& exec : worker_execs_) exec->set_cancellation(nullptr);
  run_cancel_ = nullptr;

  stats->pruned_alpha_place += producer_pruned_rule3_;
  stats->pruned_alpha_node += producer_pruned_rule4_;
  stats->speculative_wasted_tqsp +=
      spec_tqsp_runs_.load(std::memory_order_relaxed) -
      stats->tqsp_computations;
  stats->cache_evictions +=
      spec_cache_evictions_.load(std::memory_order_relaxed);
  stats->AddPageIo(producer_page_io_);
  stats->bufferpool_hits +=
      spec_bufferpool_hits_.load(std::memory_order_relaxed);
  stats->bufferpool_misses +=
      spec_bufferpool_misses_.load(std::memory_order_relaxed);
  stats->bufferpool_evictions +=
      spec_bufferpool_evictions_.load(std::memory_order_relaxed);
  for (double seconds : worker_semantic_s_) run->semantic_seconds += seconds;
  for (const auto& exec : worker_execs_) {
    if (run_status_.ok() && !exec->graph_cursor_.status.ok()) {
      run_status_ = exec->graph_cursor_.status;
    }
  }
  if (trace != nullptr) {
    trace->MergeAggregates(producer_trace_);
    for (const auto& wt : worker_traces_) trace->MergeAggregates(*wt);
  }
  query_ = nullptr;
  ctx_ = nullptr;
  total_timer_ = nullptr;
  return run_status_;
}

}  // namespace ksp
