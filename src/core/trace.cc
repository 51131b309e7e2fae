#include "core/trace.h"

#include "common/logging.h"

namespace ksp {

const char* TracePhaseName(TracePhase phase) {
  switch (phase) {
    case TracePhase::kRtreeNn:
      return "rtree_nn";
    case TracePhase::kBfsExpand:
      return "bfs_expand";
    case TracePhase::kTqspCompute:
      return "tqsp_compute";
    case TracePhase::kRule1Prune:
      return "rule1_prune";
    case TracePhase::kRule2Prune:
      return "rule2_prune";
    case TracePhase::kDocFetch:
      return "doc_fetch";
    case TracePhase::kCacheLookup:
      return "cache_lookup";
    case TracePhase::kPageIo:
      return "page_io";
    case TracePhase::kShardDispatch:
      return "shard_dispatch";
  }
  return "?";
}

void QueryTrace::Clear() {
  spans_.clear();
  open_.clear();
  epoch_set_ = false;
  for (size_t i = 0; i < kNumTracePhases; ++i) {
    inclusive_us_[i] = 0;
    exclusive_us_[i] = 0;
    count_[i] = 0;
    items_[i] = 0;
  }
}

int64_t QueryTrace::NowUs() {
  const Clock::time_point now = Clock::now();
  if (!epoch_set_) {
    epoch_ = now;
    epoch_set_ = true;
  }
  return std::chrono::duration_cast<std::chrono::microseconds>(now - epoch_)
      .count();
}

void QueryTrace::BeginSpan() {
  open_.push_back(OpenSpan{NowUs(), 0});
}

void QueryTrace::EndSpan(TracePhase phase, uint64_t items) {
  KSP_DCHECK(!open_.empty());
  const OpenSpan open = open_.back();
  open_.pop_back();
  const int64_t duration = NowUs() - open.start_us;
  const size_t p = static_cast<size_t>(phase);
  inclusive_us_[p] += duration;
  exclusive_us_[p] += duration - open.child_us;
  ++count_[p];
  items_[p] += items;
  if (!open_.empty()) open_.back().child_us += duration;
  if (record_spans_) {
    spans_.push_back(Span{phase, open.start_us, duration,
                          static_cast<uint32_t>(open_.size()), items});
  }
}

void QueryTrace::AddChildTime(TracePhase phase, int64_t us,
                              uint64_t items) {
  if (us == 0 && items == 0) return;
  const size_t p = static_cast<size_t>(phase);
  inclusive_us_[p] += us;
  exclusive_us_[p] += us;
  ++count_[p];
  items_[p] += items;
  // Behave as a closed child of the innermost open span so its
  // exclusive time sheds the externally measured interval.
  if (!open_.empty()) open_.back().child_us += us;
  if (record_spans_) {
    // Synthesized after the fact: anchor at the current instant with the
    // measured duration (start within the enclosing span, not exact).
    spans_.push_back(Span{phase, NowUs(), us,
                          static_cast<uint32_t>(open_.size()), items});
  }
}

void QueryTrace::RecordEvent(TracePhase phase, uint64_t items) {
  const size_t p = static_cast<size_t>(phase);
  ++count_[p];
  items_[p] += items;
  if (record_spans_) {
    spans_.push_back(Span{phase, NowUs(), 0,
                          static_cast<uint32_t>(open_.size()), items});
  }
}

std::string QueryTrace::ToJson() const {
  std::string out = "{\"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i > 0) out += ", ";
    out += "{\"phase\": \"";
    out += TracePhaseName(span.phase);
    out += "\", \"start_us\": " + std::to_string(span.start_us);
    out += ", \"duration_us\": " + std::to_string(span.duration_us);
    out += ", \"depth\": " + std::to_string(span.depth);
    out += ", \"items\": " + std::to_string(span.items) + "}";
  }
  out += "], \"phase_totals_us\": {";
  bool first = true;
  for (size_t p = 0; p < kNumTracePhases; ++p) {
    if (count_[p] == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += "\"";
    out += TracePhaseName(static_cast<TracePhase>(p));
    out += "\": {\"inclusive_us\": " + std::to_string(inclusive_us_[p]);
    out += ", \"exclusive_us\": " + std::to_string(exclusive_us_[p]);
    out += ", \"count\": " + std::to_string(count_[p]);
    out += ", \"items\": " + std::to_string(items_[p]) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace ksp
