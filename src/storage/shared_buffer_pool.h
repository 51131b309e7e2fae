#ifndef KSP_STORAGE_SHARED_BUFFER_POOL_H_
#define KSP_STORAGE_SHARED_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/file.h"
#include "common/io_stats.h"
#include "common/result.h"
#include "common/status.h"

namespace ksp {

/// Byte-budgeted LRU page cache shared by every disk-resident index of a
/// KspDatabase (graph, transposed graph, paged R-tree, inverted index).
/// Thread-safe: one pool serves the intra-query pipeline's producer and
/// workers concurrently. Pages are keyed by (file_id, page_id); frames
/// are refcount-pinned while a PageRef is alive, and eviction walks the
/// LRU tail skipping pinned frames. A page larger than the whole budget
/// is still admitted (the pool transiently exceeds its budget rather
/// than failing the read) and becomes the first eviction candidate.
///
/// Frame table: frames live in a stable-address arena and are recycled
/// through a free list; each registered file has a page → frame array,
/// and the LRU list is intrusive (linked through the frames). A cached
/// page therefore costs one lock, one array lookup and one atomic pin,
/// and PageRef::Release is a lock-free unpin.
class SharedBufferPool {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t cached_pages = 0;
    uint64_t cached_bytes = 0;
    uint64_t pinned_pages = 0;
    uint64_t budget_bytes = 0;
  };

  /// `budget_bytes` is a soft cap on cached payload bytes (>= 1 page is
  /// always admitted). `page_size` must be >= 1.
  explicit SharedBufferPool(uint64_t budget_bytes,
                            uint32_t page_size = 4096);

  SharedBufferPool(const SharedBufferPool&) = delete;
  SharedBufferPool& operator=(const SharedBufferPool&) = delete;

  /// Registers a file for pooled access; the file must outlive the pool
  /// (or be dropped via DropFile first). Returns the id used as the page
  /// key's file component. Sizes the file's page → frame array from
  /// file->Size().
  uint32_t RegisterFile(const RandomAccessFile* file);

  /// Evicts every cached page of `file_id` (pinned pages too — callers
  /// must not hold PageRefs across a DropFile of the same file) and
  /// forgets the file. Used when an index is rebuilt in place.
  void DropFile(uint32_t file_id);

  class PageRef;

  /// Fetches one page, pinning its frame until `*out` is released. `io`
  /// (optional) accumulates hit/miss/eviction deltas and, for a miss,
  /// the wall time of the page read. Reading entirely past end-of-file
  /// is Corruption — page ids come from validated offset tables, so an
  /// out-of-range id means a corrupted table.
  Status Fetch(uint32_t file_id, uint64_t page_id, PageRef* out,
               PageIoCounters* io);

  /// Points `*view` at the `length` bytes at `offset`. A range inside
  /// one page is served straight from the pinned frame: `*ref` holds the
  /// pin and the view is valid until it is released — release it before
  /// the next fetch, so the pin does not shelter the page from an
  /// eviction an unpinned page would have taken. A range spanning pages
  /// is assembled into `*scratch` (and `*ref` is released). The page
  /// fetches, counters and errors are the same either way; reads past
  /// end-of-file are Corruption.
  Status ReadRange(uint32_t file_id, uint64_t offset, uint64_t length,
                   PageRef* ref, std::string* scratch,
                   std::string_view* view, PageIoCounters* io);

  /// Drops every unpinned cached page (simulates a cold cache).
  void Clear();

  Stats GetStats() const;

  uint32_t page_size() const { return page_size_; }
  uint64_t budget_bytes() const { return budget_bytes_; }

 private:
  struct Frame {
    std::string data;
    /// Written under mu_ (Fetch pins), decremented lock-free by
    /// PageRef::Release; read under mu_ to decide evictability.
    std::atomic<uint32_t> pins{0};
    uint32_t file_id = 0;
    uint64_t page_id = 0;
    /// LRU links, `prev` toward the MRU head.
    Frame* prev = nullptr;
    Frame* next = nullptr;
  };

  struct FileSlot {
    const RandomAccessFile* file = nullptr;
    /// page id → cached frame (nullptr when not cached).
    std::vector<Frame*> frames;
  };

  /// A frame off every list whose buffer can take the next page read:
  /// a reclaimed orphan, a recycled frame, or a new one. Requires mu_.
  Frame* AcquireFrameLocked();
  void LinkFrontLocked(Frame* frame);
  void UnlinkLocked(Frame* frame);
  /// Takes a cached frame off the LRU list and its file's page array
  /// and subtracts its bytes. Requires mu_.
  void UncacheLocked(Frame* frame);
  /// Serves a cached frame: moves it to the MRU head, pins it for `out`
  /// and counts a hit. Requires mu_.
  void HitLocked(Frame* frame, PageRef* out, PageIoCounters* io);
  /// Evicts unpinned LRU frames until cached bytes fit the budget.
  /// Requires mu_ held.
  void EvictToBudgetLocked();

  const uint64_t budget_bytes_;
  const uint32_t page_size_;

  mutable std::mutex mu_;
  std::vector<FileSlot> files_;
  /// Frame arena: a deque keeps element addresses stable as it grows, so
  /// PageRefs and in-flight reads hold Frame pointers without the lock.
  std::deque<Frame> frames_;
  std::vector<Frame*> free_frames_;
  /// Frames of a dropped file that were pinned at DropFile time; each is
  /// recycled under mu_ once its last pin is released.
  std::vector<Frame*> orphans_;
  Frame* lru_head_ = nullptr;  // MRU
  Frame* lru_tail_ = nullptr;  // LRU
  uint64_t cached_pages_ = 0;
  uint64_t cached_bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

/// Movable pin handle over one cached page. The view stays valid (and
/// the frame un-evictable) until the ref is released or destroyed.
class SharedBufferPool::PageRef {
 public:
  PageRef() = default;
  ~PageRef() { Release(); }

  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  PageRef(PageRef&& other) noexcept : frame_(other.frame_) {
    other.frame_ = nullptr;
  }
  PageRef& operator=(PageRef&& other) noexcept {
    if (this != &other) {
      Release();
      frame_ = other.frame_;
      other.frame_ = nullptr;
    }
    return *this;
  }

  std::string_view data() const {
    return frame_ ? std::string_view(frame_->data) : std::string_view();
  }
  bool valid() const { return frame_ != nullptr; }

  /// Unpins without taking the pool's lock. The release ordering makes
  /// this thread's reads of the page happen-before any reuse of the
  /// frame, which first observes the zero pin count under the lock.
  void Release() {
    if (frame_ != nullptr) {
      frame_->pins.fetch_sub(1, std::memory_order_release);
      frame_ = nullptr;
    }
  }

 private:
  friend class SharedBufferPool;
  Frame* frame_ = nullptr;
};

}  // namespace ksp

#endif  // KSP_STORAGE_SHARED_BUFFER_POOL_H_
