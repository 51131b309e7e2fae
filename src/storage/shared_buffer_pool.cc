#include "storage/shared_buffer_pool.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"

namespace ksp {

SharedBufferPool::SharedBufferPool(uint64_t budget_bytes,
                                   uint32_t page_size)
    : budget_bytes_(std::max<uint64_t>(budget_bytes, 1)),
      page_size_(page_size) {
  KSP_CHECK(page_size >= 1) << "page_size must be >= 1";
}

uint32_t SharedBufferPool::RegisterFile(const RandomAccessFile* file) {
  const uint64_t pages = (file->Size() + page_size_ - 1) / page_size_;
  std::lock_guard<std::mutex> lock(mu_);
  files_.push_back(FileSlot{file, std::vector<Frame*>(pages, nullptr)});
  return static_cast<uint32_t>(files_.size() - 1);
}

void SharedBufferPool::DropFile(uint32_t file_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_id >= files_.size()) return;
  FileSlot& slot = files_[file_id];
  for (Frame* frame : slot.frames) {
    if (frame == nullptr) continue;
    UncacheLocked(frame);
    ++evictions_;
    // A pinned frame stays alive for its outstanding PageRefs and is
    // recycled once the last of them is released.
    if (frame->pins.load(std::memory_order_acquire) > 0) {
      orphans_.push_back(frame);
    } else {
      free_frames_.push_back(frame);
    }
  }
  slot.file = nullptr;
  std::vector<Frame*>().swap(slot.frames);
}

Status SharedBufferPool::Fetch(uint32_t file_id, uint64_t page_id,
                               PageRef* out, PageIoCounters* io) {
  out->Release();
  std::unique_lock<std::mutex> lock(mu_);
  if (file_id >= files_.size() || files_[file_id].file == nullptr) {
    return Status::InvalidArgument("unknown buffer-pool file id");
  }
  {
    const std::vector<Frame*>& table = files_[file_id].frames;
    if (page_id < table.size() && table[page_id] != nullptr) {
      HitLocked(table[page_id], out, io);
      return Status::OK();
    }
  }
  const RandomAccessFile* file = files_[file_id].file;
  const uint64_t registered_pages = files_[file_id].frames.size();
  Frame* frame = AcquireFrameLocked();

  // Read outside the lock into the reserved frame: concurrent fetchers
  // of other pages proceed; a racing fetch of the same page at worst
  // reads it twice and the second finds the frame already cached.
  lock.unlock();
  const auto start = std::chrono::steady_clock::now();
  Status read_status =
      file->Read(page_id * static_cast<uint64_t>(page_size_), page_size_,
                 &frame->data);
  if (io != nullptr) {
    io->nanos += std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  }
  // The page array covers the file's size at registration; a page past
  // it is past the end of the file.
  if (read_status.ok() &&
      (frame->data.empty() || page_id >= registered_pages)) {
    read_status =
        Status::Corruption("page read past end of file: " + file->path());
  }

  lock.lock();
  if (!read_status.ok()) {
    free_frames_.push_back(frame);
    return read_status;
  }
  const uint64_t evictions_before = evictions_;
  FileSlot& slot = files_[file_id];
  if (page_id < slot.frames.size() && slot.frames[page_id] != nullptr) {
    // Raced with another fetcher; use the cached frame.
    free_frames_.push_back(frame);
    HitLocked(slot.frames[page_id], out, io);
  } else {
    ++misses_;
    if (io != nullptr) ++io->misses;
    frame->pins.fetch_add(1, std::memory_order_relaxed);
    out->frame_ = frame;
    if (slot.file == nullptr) {
      // Dropped while the read was in flight: hand the page out uncached.
      orphans_.push_back(frame);
    } else {
      slot.frames[page_id] = frame;
      frame->file_id = file_id;
      frame->page_id = page_id;
      LinkFrontLocked(frame);
      ++cached_pages_;
      cached_bytes_ += frame->data.size();
    }
  }
  EvictToBudgetLocked();
  if (io != nullptr) io->evictions += evictions_ - evictions_before;
  return Status::OK();
}

Status SharedBufferPool::ReadRange(uint32_t file_id, uint64_t offset,
                                   uint64_t length, PageRef* ref,
                                   std::string* scratch,
                                   std::string_view* view,
                                   PageIoCounters* io) {
  ref->Release();
  scratch->clear();
  *view = {};
  uint64_t cursor = offset;
  uint64_t remaining = length;
  while (remaining > 0) {
    const uint64_t page_id = cursor / page_size_;
    const uint64_t page_offset = cursor % page_size_;
    KSP_RETURN_NOT_OK(Fetch(file_id, page_id, ref, io));
    const std::string_view page = ref->data();
    if (page_offset >= page.size()) {
      return Status::Corruption("read past end of page");
    }
    const uint64_t take =
        std::min<uint64_t>(remaining, page.size() - page_offset);
    if (take == length) {
      *view = page.substr(page_offset, take);
      return Status::OK();
    }
    scratch->append(page.substr(page_offset, take));
    cursor += take;
    remaining -= take;
  }
  ref->Release();
  *view = *scratch;
  return Status::OK();
}

void SharedBufferPool::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  Frame* frame = lru_head_;
  while (frame != nullptr) {
    Frame* next = frame->next;
    if (frame->pins.load(std::memory_order_acquire) == 0) {
      UncacheLocked(frame);
      ++evictions_;
      free_frames_.push_back(frame);
    }
    frame = next;
  }
}

SharedBufferPool::Stats SharedBufferPool::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.cached_bytes = cached_bytes_;
  stats.budget_bytes = budget_bytes_;
  // Pinned orphans still count as cached pages until their last release.
  stats.cached_pages = cached_pages_;
  for (const Frame* frame : orphans_) {
    if (frame->pins.load(std::memory_order_acquire) > 0) {
      ++stats.cached_pages;
    }
  }
  for (const Frame& frame : frames_) {
    if (frame.pins.load(std::memory_order_acquire) > 0) ++stats.pinned_pages;
  }
  return stats;
}

SharedBufferPool::Frame* SharedBufferPool::AcquireFrameLocked() {
  for (size_t i = 0; i < orphans_.size();) {
    if (orphans_[i]->pins.load(std::memory_order_acquire) == 0) {
      free_frames_.push_back(orphans_[i]);
      orphans_[i] = orphans_.back();
      orphans_.pop_back();
    } else {
      ++i;
    }
  }
  if (free_frames_.empty()) return &frames_.emplace_back();
  Frame* frame = free_frames_.back();
  free_frames_.pop_back();
  return frame;
}

void SharedBufferPool::LinkFrontLocked(Frame* frame) {
  frame->prev = nullptr;
  frame->next = lru_head_;
  if (lru_head_ != nullptr) {
    lru_head_->prev = frame;
  } else {
    lru_tail_ = frame;
  }
  lru_head_ = frame;
}

void SharedBufferPool::UnlinkLocked(Frame* frame) {
  if (frame->prev != nullptr) {
    frame->prev->next = frame->next;
  } else {
    lru_head_ = frame->next;
  }
  if (frame->next != nullptr) {
    frame->next->prev = frame->prev;
  } else {
    lru_tail_ = frame->prev;
  }
}

void SharedBufferPool::UncacheLocked(Frame* frame) {
  UnlinkLocked(frame);
  files_[frame->file_id].frames[frame->page_id] = nullptr;
  --cached_pages_;
  cached_bytes_ -= frame->data.size();
}

void SharedBufferPool::HitLocked(Frame* frame, PageRef* out,
                                 PageIoCounters* io) {
  if (frame != lru_head_) {
    UnlinkLocked(frame);
    LinkFrontLocked(frame);
  }
  frame->pins.fetch_add(1, std::memory_order_relaxed);
  out->frame_ = frame;
  ++hits_;
  if (io != nullptr) ++io->hits;
}

void SharedBufferPool::EvictToBudgetLocked() {
  Frame* frame = lru_tail_;
  while (cached_bytes_ > budget_bytes_ && frame != nullptr) {
    Frame* prev = frame->prev;
    if (frame->pins.load(std::memory_order_acquire) == 0) {
      UncacheLocked(frame);
      ++evictions_;
      free_frames_.push_back(frame);
    }
    frame = prev;
  }
}

}  // namespace ksp
