#ifndef KSP_COMMON_IO_STATS_H_
#define KSP_COMMON_IO_STATS_H_

#include <cstdint>

namespace ksp {

/// Page-I/O counters accumulated by storage-layer cursors (graph,
/// spatial, postings). Lives in the common layer so spatial/text/storage
/// code can fill it without depending on core's QueryTrace; core call
/// sites fold these into QueryStats and the `page_io` trace phase.
///
/// These counters are deliberately OUTSIDE the backend-invariance
/// contract: the in-memory backend leaves them at zero and the disk
/// backend's hit/miss split depends on buffer-pool budget and history.
struct PageIoCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Wall time of the page reads of misses (steady clock); hits are
  /// counted but not timed.
  int64_t nanos = 0;

  void Add(const PageIoCounters& other) {
    hits += other.hits;
    misses += other.misses;
    evictions += other.evictions;
    nanos += other.nanos;
  }

  /// Member-wise `*this - base`: the growth of a cumulative counter.
  PageIoCounters Since(const PageIoCounters& base) const {
    PageIoCounters delta;
    delta.hits = hits - base.hits;
    delta.misses = misses - base.misses;
    delta.evictions = evictions - base.evictions;
    delta.nanos = nanos - base.nanos;
    return delta;
  }

  bool IsZero() const {
    return hits == 0 && misses == 0 && evictions == 0 && nanos == 0;
  }

  /// Read time rounded to whole microseconds, the trace's unit.
  int64_t RoundedMicros() const { return (nanos + 500) / 1000; }

  /// Pages touched (every fetch is either a hit or a miss).
  uint64_t Fetches() const { return hits + misses; }
};

}  // namespace ksp

#endif  // KSP_COMMON_IO_STATS_H_
