// SharedBufferPool unit tests: LRU eviction order under a byte budget,
// pin refcounts blocking eviction, oversized-page admission, cumulative
// counters, spanning-range reads, per-file drop semantics, a seeded
// random trace replayed against a reference LRU model, and page-I/O
// timing. The pool is the single byte-budget authority of the disk
// backend (DESIGN.md §10), so its accounting must be exact.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/file.h"
#include "common/io_stats.h"
#include "common/rng.h"
#include "storage/shared_buffer_pool.h"

namespace ksp {
namespace {

class SharedBufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            ("ksp_pool_" + std::string(info->name()) + "_" +
             std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Writes `pages` pages of `page_size` bytes; page i is filled with the
  /// byte 'A' + i so reads are content-checkable.
  std::unique_ptr<RandomAccessFile> MakeFile(const std::string& name,
                                             size_t pages,
                                             uint32_t page_size,
                                             size_t tail_bytes = 0) {
    std::string content;
    for (size_t i = 0; i < pages; ++i) {
      content += std::string(page_size, static_cast<char>('A' + (i % 26)));
    }
    content += std::string(tail_bytes, 'z');
    return WriteFile(name, content);
  }

  std::unique_ptr<RandomAccessFile> WriteFile(const std::string& name,
                                              const std::string& content) {
    const std::string path = dir_ + "/" + name;
    {
      std::ofstream out(path, std::ios::binary);
      out << content;
    }
    auto file = DefaultFileSystem()->NewRandomAccessFile(path);
    EXPECT_TRUE(file.ok()) << file.status().ToString();
    return std::move(*file);
  }

  std::string dir_;
};

TEST_F(SharedBufferPoolTest, FetchReadsCorrectPageContents) {
  SharedBufferPool pool(/*budget_bytes=*/1 << 20, /*page_size=*/256);
  auto file = MakeFile("f.bin", 4, 256, /*tail_bytes=*/10);
  const uint32_t id = pool.RegisterFile(file.get());
  for (uint64_t page = 0; page < 4; ++page) {
    SharedBufferPool::PageRef ref;
    ASSERT_TRUE(pool.Fetch(id, page, &ref, nullptr).ok());
    ASSERT_EQ(ref.data().size(), 256u);
    EXPECT_EQ(ref.data()[0], static_cast<char>('A' + page));
  }
  // The short tail page is readable with its true length.
  SharedBufferPool::PageRef tail;
  ASSERT_TRUE(pool.Fetch(id, 4, &tail, nullptr).ok());
  EXPECT_EQ(tail.data(), std::string(10, 'z'));
  // Entirely past EOF: corruption (page ids come from validated tables).
  SharedBufferPool::PageRef beyond;
  EXPECT_TRUE(pool.Fetch(id, 5, &beyond, nullptr).IsCorruption());
}

TEST_F(SharedBufferPoolTest, CountersAccumulateAndStatsSnapshot) {
  SharedBufferPool pool(/*budget_bytes=*/1 << 20, /*page_size=*/128);
  auto file = MakeFile("f.bin", 8, 128);
  const uint32_t id = pool.RegisterFile(file.get());
  PageIoCounters io;
  SharedBufferPool::PageRef ref;
  ASSERT_TRUE(pool.Fetch(id, 0, &ref, &io).ok());
  ref.Release();
  ASSERT_TRUE(pool.Fetch(id, 0, &ref, &io).ok());
  ref.Release();
  EXPECT_EQ(io.misses, 1u);
  EXPECT_EQ(io.hits, 1u);
  EXPECT_GE(io.nanos, 0);
  EXPECT_EQ(io.Fetches(), 2u);

  const SharedBufferPool::Stats stats = pool.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.cached_pages, 1u);
  EXPECT_EQ(stats.cached_bytes, 128u);
  EXPECT_EQ(stats.pinned_pages, 0u);
  EXPECT_EQ(stats.budget_bytes, 1u << 20);
}

TEST_F(SharedBufferPoolTest, EvictsLeastRecentlyUsedFirst) {
  // Budget of exactly 2 pages.
  SharedBufferPool pool(/*budget_bytes=*/256, /*page_size=*/128);
  auto file = MakeFile("f.bin", 4, 128);
  const uint32_t id = pool.RegisterFile(file.get());
  PageIoCounters io;
  auto touch = [&](uint64_t page) {
    SharedBufferPool::PageRef ref;
    ASSERT_TRUE(pool.Fetch(id, page, &ref, &io).ok());
  };
  touch(0);
  touch(1);
  touch(0);  // Page 0 is now MRU, page 1 LRU.
  touch(2);  // Evicts page 1.
  EXPECT_EQ(io.evictions, 1u);
  const uint64_t misses_before = io.misses;
  touch(0);  // Still cached: hit, no miss.
  EXPECT_EQ(io.misses, misses_before);
  touch(1);  // Was evicted: miss again.
  EXPECT_EQ(io.misses, misses_before + 1);
}

TEST_F(SharedBufferPoolTest, PinnedPagesAreNeverEvicted) {
  SharedBufferPool pool(/*budget_bytes=*/256, /*page_size=*/128);
  auto file = MakeFile("f.bin", 6, 128);
  const uint32_t id = pool.RegisterFile(file.get());
  SharedBufferPool::PageRef pinned;
  ASSERT_TRUE(pool.Fetch(id, 0, &pinned, nullptr).ok());
  // Stream the rest of the file through the one unpinned frame: page 0
  // must survive every eviction pass while its pin is held.
  for (uint64_t page = 1; page < 6; ++page) {
    SharedBufferPool::PageRef ref;
    ASSERT_TRUE(pool.Fetch(id, page, &ref, nullptr).ok());
  }
  EXPECT_EQ(pinned.data()[0], 'A');
  EXPECT_GE(pool.GetStats().pinned_pages, 1u);
  PageIoCounters io;
  SharedBufferPool::PageRef again;
  ASSERT_TRUE(pool.Fetch(id, 0, &again, &io).ok());
  EXPECT_EQ(io.hits, 1u);  // Survived as a cached frame.
  EXPECT_EQ(io.misses, 0u);
}

TEST_F(SharedBufferPoolTest, OversizedPageIsAdmittedThenEvictedFirst) {
  // Budget smaller than one page: the read must still succeed (the pool
  // transiently exceeds its budget) and the frame must not stick.
  SharedBufferPool pool(/*budget_bytes=*/64, /*page_size=*/256);
  auto file = MakeFile("f.bin", 3, 256);
  const uint32_t id = pool.RegisterFile(file.get());
  PageIoCounters io;
  {
    SharedBufferPool::PageRef ref;
    ASSERT_TRUE(pool.Fetch(id, 0, &ref, &io).ok());
    ASSERT_EQ(ref.data().size(), 256u);
  }
  {
    SharedBufferPool::PageRef ref;
    ASSERT_TRUE(pool.Fetch(id, 1, &ref, &io).ok());
  }
  // The second over-budget fetch had to push the first frame out.
  EXPECT_GE(io.evictions, 1u);
  EXPECT_LE(pool.GetStats().cached_pages, 1u);
}

TEST_F(SharedBufferPoolTest, ReadRangeAssemblesSpanningPages) {
  SharedBufferPool pool(/*budget_bytes=*/1 << 20, /*page_size=*/128);
  auto file = MakeFile("f.bin", 4, 128);
  const uint32_t id = pool.RegisterFile(file.get());
  PageIoCounters io;
  SharedBufferPool::PageRef ref;
  std::string scratch;
  std::string_view out;
  // 100 bytes starting 100 bytes in: spans pages 0 and 1, so the bytes
  // are assembled into the scratch buffer and no pin is kept.
  ASSERT_TRUE(pool.ReadRange(id, 100, 100, &ref, &scratch, &out, &io).ok());
  ASSERT_EQ(out.size(), 100u);
  EXPECT_EQ(out.data(), scratch.data());
  EXPECT_FALSE(ref.valid());
  EXPECT_EQ(out.substr(0, 28), std::string(28, 'A'));
  EXPECT_EQ(out.substr(28), std::string(72, 'B'));
  EXPECT_EQ(io.misses, 2u);
  // A range inside one page is a view of the pinned frame.
  ASSERT_TRUE(pool.ReadRange(id, 260, 50, &ref, &scratch, &out, &io).ok());
  EXPECT_EQ(out, std::string(50, 'C'));
  ASSERT_TRUE(ref.valid());
  EXPECT_EQ(out.data(), ref.data().data() + 4);
  EXPECT_EQ(pool.GetStats().pinned_pages, 1u);
  ref.Release();
  EXPECT_EQ(pool.GetStats().pinned_pages, 0u);
  // Past-EOF range is corruption.
  EXPECT_TRUE(pool.ReadRange(id, 4 * 128 - 10, 20, &ref, &scratch, &out, &io)
                  .IsCorruption());
}

TEST_F(SharedBufferPoolTest, DropFileForgetsPagesAndClearResets) {
  SharedBufferPool pool(/*budget_bytes=*/1 << 20, /*page_size=*/128);
  auto a = MakeFile("a.bin", 2, 128);
  auto b = MakeFile("b.bin", 2, 128);
  const uint32_t ida = pool.RegisterFile(a.get());
  const uint32_t idb = pool.RegisterFile(b.get());
  ASSERT_NE(ida, idb);
  PageIoCounters io;
  SharedBufferPool::PageRef ref;
  ASSERT_TRUE(pool.Fetch(ida, 0, &ref, &io).ok());
  ref.Release();
  ASSERT_TRUE(pool.Fetch(idb, 0, &ref, &io).ok());
  ref.Release();
  EXPECT_EQ(pool.GetStats().cached_pages, 2u);
  pool.DropFile(ida);
  EXPECT_EQ(pool.GetStats().cached_pages, 1u);
  // The other file's page is untouched.
  ASSERT_TRUE(pool.Fetch(idb, 0, &ref, &io).ok());
  ref.Release();
  EXPECT_EQ(io.hits, 1u);
  pool.Clear();
  EXPECT_EQ(pool.GetStats().cached_pages, 0u);
  EXPECT_EQ(pool.GetStats().cached_bytes, 0u);
}

/// The pool's policy, written as naively as possible: entries in MRU
/// order, a hit moves its entry to the front, a miss inserts at the
/// front and then evicts unpinned entries from the back while the cached
/// bytes exceed the budget (never below one byte).
class ReferenceLru {
 public:
  explicit ReferenceLru(uint64_t budget)
      : budget_(std::max<uint64_t>(budget, 1)) {}

  void Fetch(uint32_t file, uint64_t page, uint64_t bytes) {
    auto it = Find(file, page);
    if (it != entries_.end()) {
      Entry entry = *it;
      entries_.erase(it);
      ++entry.pins;
      entries_.insert(entries_.begin(), entry);
      ++hits;
      return;
    }
    entries_.insert(entries_.begin(), Entry{file, page, bytes, 1});
    ++misses;
    for (size_t i = entries_.size(); i-- > 0 && cached_bytes() > budget_;) {
      if (entries_[i].pins == 0) {
        entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
        ++evictions;
      }
    }
  }
  void Release(uint32_t file, uint64_t page) { --Find(file, page)->pins; }
  void Clear() {
    RemoveIf([](const Entry& e) { return e.pins == 0; });
  }
  void DropFile(uint32_t file) {
    RemoveIf([file](const Entry& e) { return e.file == file; });
  }

  uint64_t cached_pages() const { return entries_.size(); }
  uint64_t cached_bytes() const {
    uint64_t bytes = 0;
    for (const Entry& e : entries_) bytes += e.bytes;
    return bytes;
  }
  uint64_t pinned_pages() const {
    return static_cast<uint64_t>(std::count_if(
        entries_.begin(), entries_.end(),
        [](const Entry& e) { return e.pins > 0; }));
  }

  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;

 private:
  struct Entry {
    uint32_t file;
    uint64_t page;
    uint64_t bytes;
    uint32_t pins;
  };

  std::vector<Entry>::iterator Find(uint32_t file, uint64_t page) {
    return std::find_if(entries_.begin(), entries_.end(),
                        [&](const Entry& e) {
                          return e.file == file && e.page == page;
                        });
  }
  template <typename Pred>
  void RemoveIf(Pred pred) {
    const size_t before = entries_.size();
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(), pred),
                   entries_.end());
    evictions += before - entries_.size();
  }

  const uint64_t budget_;
  std::vector<Entry> entries_;
};

TEST_F(SharedBufferPoolTest, RandomTraceMatchesReferenceLru) {
  constexpr uint32_t kPageSize = 64;
  // Three files, each ending in a short tail page.
  const std::vector<uint64_t> sizes = {5 * kPageSize + 17, 2 * kPageSize + 1,
                                       9 * kPageSize + 40};
  std::vector<std::string> contents;
  std::vector<std::unique_ptr<RandomAccessFile>> files;
  for (size_t f = 0; f < sizes.size(); ++f) {
    std::string content(sizes[f], '\0');
    for (size_t o = 0; o < content.size(); ++o) {
      content[o] = static_cast<char>((f * 131 + o * 7 + o / kPageSize) & 0xFF);
    }
    files.push_back(WriteFile("trace" + std::to_string(f), content));
    contents.push_back(std::move(content));
  }
  auto num_pages = [&](size_t f) {
    return (sizes[f] + kPageSize - 1) / kPageSize;
  };

  // Budgets: below one page, a page and a half, a few pages, everything.
  for (const uint64_t budget : {uint64_t{40}, uint64_t{100}, uint64_t{300},
                                uint64_t{1} << 20}) {
    SCOPED_TRACE(budget);
    SharedBufferPool pool(budget, kPageSize);
    ReferenceLru model(budget);
    std::vector<uint32_t> ids;
    for (const auto& file : files) ids.push_back(pool.RegisterFile(file.get()));
    struct Held {
      size_t file;
      uint64_t page;
      SharedBufferPool::PageRef ref;
    };
    std::vector<Held> held;
    Rng rng(budget * 7919 + 1);

    for (int step = 0; step < 4000; ++step) {
      const uint64_t op = rng.NextBounded(100);
      if (op < 70) {
        const size_t f = rng.NextBounded(files.size());
        // Now and then one page past the end: Corruption, no effect.
        const uint64_t page = rng.NextBounded(num_pages(f) + 1);
        SharedBufferPool::PageRef ref;
        const Status st = pool.Fetch(ids[f], page, &ref, nullptr);
        if (page == num_pages(f)) {
          ASSERT_TRUE(st.IsCorruption()) << step;
          ASSERT_FALSE(ref.valid());
        } else {
          ASSERT_TRUE(st.ok()) << step << ": " << st.ToString();
          const std::string want = contents[f].substr(page * kPageSize,
                                                      kPageSize);
          ASSERT_EQ(ref.data(), want) << step;
          model.Fetch(ids[f], page, want.size());
          if (held.size() < 3 && rng.NextBounded(4) == 0) {
            held.push_back(Held{f, page, std::move(ref)});
          } else {
            ref.Release();
            model.Release(ids[f], page);
          }
        }
      } else if (op < 90) {
        if (!held.empty()) {
          const size_t i = rng.NextBounded(held.size());
          held[i].ref.Release();
          model.Release(ids[held[i].file], held[i].page);
          held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
        }
      } else if (op < 95) {
        pool.Clear();
        model.Clear();
      } else {
        // Drop an idle file and register it again under a fresh id.
        const size_t f = rng.NextBounded(files.size());
        const bool idle = std::none_of(
            held.begin(), held.end(),
            [f](const Held& h) { return h.file == f; });
        if (idle) {
          pool.DropFile(ids[f]);
          model.DropFile(ids[f]);
          SharedBufferPool::PageRef ref;
          ASSERT_TRUE(pool.Fetch(ids[f], 0, &ref, nullptr)
                          .IsInvalidArgument());
          ids[f] = pool.RegisterFile(files[f].get());
        }
      }
      const SharedBufferPool::Stats stats = pool.GetStats();
      ASSERT_EQ(stats.hits, model.hits) << step;
      ASSERT_EQ(stats.misses, model.misses) << step;
      ASSERT_EQ(stats.evictions, model.evictions) << step;
      ASSERT_EQ(stats.cached_pages, model.cached_pages()) << step;
      ASSERT_EQ(stats.cached_bytes, model.cached_bytes()) << step;
      ASSERT_EQ(stats.pinned_pages, model.pinned_pages()) << step;
      for (const Held& h : held) {
        ASSERT_EQ(h.ref.data(),
                  contents[h.file].substr(h.page * kPageSize, kPageSize))
            << step;
      }
    }
    EXPECT_GT(model.evictions, 0u);
  }
}

/// In-memory file whose every Read first sleeps for `delay`.
class SlowFile : public RandomAccessFile {
 public:
  SlowFile(std::string content, std::chrono::nanoseconds delay)
      : content_(std::move(content)), delay_(delay) {}

  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    std::this_thread::sleep_for(delay_);
    *out = offset < content_.size() ? content_.substr(offset, n) : "";
    return Status::OK();
  }
  uint64_t Size() const override { return content_.size(); }
  const std::string& path() const override { return path_; }

 private:
  const std::string content_;
  const std::chrono::nanoseconds delay_;
  const std::string path_ = "slow-file";
};

TEST_F(SharedBufferPoolTest, PageIoTimesMissReadsOnly) {
  constexpr std::chrono::milliseconds kDelay(2);
  SlowFile file(std::string(256, 'x'), kDelay);
  SharedBufferPool pool(/*budget_bytes=*/1 << 20, /*page_size=*/128);
  const uint32_t id = pool.RegisterFile(&file);
  SharedBufferPool::PageRef ref;

  PageIoCounters miss;
  ASSERT_TRUE(pool.Fetch(id, 0, &ref, &miss).ok());
  EXPECT_EQ(miss.misses, 1u);
  EXPECT_GE(miss.nanos,
            std::chrono::duration_cast<std::chrono::nanoseconds>(kDelay)
                .count());
  EXPECT_GE(miss.RoundedMicros(), 2000);

  PageIoCounters hit;
  ASSERT_TRUE(pool.Fetch(id, 0, &ref, &hit).ok());
  EXPECT_EQ(hit.hits, 1u);
  EXPECT_EQ(hit.nanos, 0);
}

}  // namespace
}  // namespace ksp
