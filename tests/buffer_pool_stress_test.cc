// Concurrency stress for the shared buffer pool, built to run under TSan
// (the sanitize CI jobs run `ctest -L outofcore`). Six threads fetch and
// release random pages of three files through a three-page budget, each
// holding up to two pins at a time, while one of them also clears the
// pool. Pins are released without the pool's lock, so this is where a
// frame recycled under a live reader would show up: every byte of every
// fetched page is checked while its pin is held.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/file.h"
#include "common/rng.h"
#include "storage/shared_buffer_pool.h"

namespace ksp {
namespace {

constexpr uint32_t kPageSize = 64;

char ByteAt(size_t file, uint64_t offset) {
  return static_cast<char>((file * 97 + offset * 13 + offset / kPageSize) &
                           0xFF);
}

TEST(BufferPoolStressTest, ConcurrentFetchReleaseAndClear) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("ksp_pool_stress_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(dir);
  const std::vector<uint64_t> sizes = {7 * kPageSize + 9, 4 * kPageSize,
                                       11 * kPageSize + 33};
  std::vector<std::unique_ptr<RandomAccessFile>> files;
  for (size_t f = 0; f < sizes.size(); ++f) {
    const std::string path = dir + "/f" + std::to_string(f);
    {
      std::ofstream out(path, std::ios::binary);
      for (uint64_t o = 0; o < sizes[f]; ++o) out.put(ByteAt(f, o));
    }
    auto file = DefaultFileSystem()->NewRandomAccessFile(path);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    files.push_back(std::move(*file));
  }

  SharedBufferPool pool(/*budget_bytes=*/3 * kPageSize, kPageSize);
  std::vector<uint32_t> ids;
  for (const auto& file : files) ids.push_back(pool.RegisterFile(file.get()));

  constexpr int kThreads = 6;
  constexpr int kFetchesPerThread = 3000;
  std::atomic<uint64_t> fetches{0};
  std::atomic<uint64_t> bad_bytes{0};
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      struct Held {
        size_t file;
        uint64_t page;
        SharedBufferPool::PageRef ref;
      };
      std::deque<Held> held;
      auto check = [&](const Held& h) {
        const std::string_view data = h.ref.data();
        const uint64_t begin = h.page * kPageSize;
        const uint64_t want_size =
            std::min<uint64_t>(kPageSize, sizes[h.file] - begin);
        if (data.size() != want_size) bad_bytes.fetch_add(1);
        for (size_t i = 0; i < data.size(); ++i) {
          if (data[i] != ByteAt(h.file, begin + i)) bad_bytes.fetch_add(1);
        }
      };
      for (int i = 0; i < kFetchesPerThread; ++i) {
        if (held.size() == 2 || (!held.empty() && rng.NextBounded(3) == 0)) {
          // Re-check before releasing: the frame must not have been
          // recycled while pinned.
          check(held.front());
          held.pop_front();
        }
        const size_t f = rng.NextBounded(files.size());
        const uint64_t pages = (sizes[f] + kPageSize - 1) / kPageSize;
        Held h{f, rng.NextBounded(pages), {}};
        if (!pool.Fetch(ids[f], h.page, &h.ref, nullptr).ok()) {
          errors.fetch_add(1);
          continue;
        }
        fetches.fetch_add(1);
        check(h);
        held.push_back(std::move(h));
        if (t == 0 && i % 64 == 0) pool.Clear();
      }
      for (const Held& h : held) check(h);
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(bad_bytes.load(), 0u);
  const SharedBufferPool::Stats stats = pool.GetStats();
  EXPECT_EQ(stats.pinned_pages, 0u);
  EXPECT_EQ(stats.hits + stats.misses, fetches.load());
  EXPECT_EQ(fetches.load(), uint64_t{kThreads} * kFetchesPerThread);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ksp
