#include "text/inverted_index.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/rng.h"
#include "text/document_store.h"

namespace ksp {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

DocumentStore MakeStore(
    const std::vector<std::vector<TermId>>& docs_by_vertex) {
  DocumentStoreBuilder builder;
  for (VertexId v = 0; v < docs_by_vertex.size(); ++v) {
    for (TermId t : docs_by_vertex[v]) builder.AddTerm(v, t);
  }
  return builder.Finish(static_cast<VertexId>(docs_by_vertex.size()));
}

TEST(MemoryInvertedIndexTest, PostingsAreSortedByVertex) {
  DocumentStore store = MakeStore({{1}, {0, 1}, {1, 2}});
  auto index = MemoryInvertedIndex::Build(store, 3);

  auto l0 = index.Postings(0);
  ASSERT_EQ(l0.size(), 1u);
  EXPECT_EQ(l0[0], 1u);

  auto l1 = index.Postings(1);
  ASSERT_EQ(l1.size(), 3u);
  EXPECT_EQ(l1[0], 0u);
  EXPECT_EQ(l1[1], 1u);
  EXPECT_EQ(l1[2], 2u);

  EXPECT_EQ(index.NumPostings(), 5u);
  EXPECT_EQ(index.NumTerms(), 3u);
  EXPECT_NEAR(index.AveragePostingLength(), 5.0 / 3.0, 1e-12);
}

TEST(MemoryInvertedIndexTest, UnknownTermIsEmpty) {
  DocumentStore store = MakeStore({{0}});
  auto index = MemoryInvertedIndex::Build(store, 1);
  EXPECT_TRUE(index.Postings(5).empty());
  std::vector<VertexId> out;
  ASSERT_TRUE(index.GetPostings(5, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(MemoryInvertedIndexTest, TermWithNoPostings) {
  DocumentStore store = MakeStore({{0}, {2}});
  auto index = MemoryInvertedIndex::Build(store, 3);
  EXPECT_TRUE(index.Postings(1).empty());
  EXPECT_EQ(index.NumTerms(), 2u);  // Terms 0 and 2 only.
  EXPECT_EQ(index.TermCount(), 3u);
}

TEST(MemoryInvertedIndexTest, PostingsViewsAreZeroCopy) {
  DocumentStore store = MakeStore({{1}, {0, 1}, {1, 2}, {}, {0, 2}});
  auto index = MemoryInvertedIndex::Build(store, 3);
  for (TermId t = 0; t < 3; ++t) {
    const std::span<const VertexId> view = index.Postings(t);
    std::vector<VertexId> copy;
    ASSERT_TRUE(index.GetPostings(t, &copy).ok());
    EXPECT_EQ(std::vector<VertexId>(view.begin(), view.end()), copy)
        << "term " << t;
    // Two calls alias the index's own storage — no copy was made.
    EXPECT_EQ(view.data(), index.Postings(t).data()) << "term " << t;
  }
  EXPECT_TRUE(index.Postings(9).empty());
}

TEST(DiskInvertedIndexTest, RoundTripSmall) {
  DocumentStore store = MakeStore({{1}, {0, 1}, {1, 2}, {}, {0, 2}});
  auto mem = MemoryInvertedIndex::Build(store, 3);
  std::string path = TempPath("ksp_disk_index_small.idx");
  ASSERT_TRUE(DiskInvertedIndex::Write(mem, path).ok());

  auto opened = DiskInvertedIndex::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& disk = *opened.value();
  EXPECT_EQ(disk.NumPostings(), mem.NumPostings());
  for (TermId t = 0; t < 3; ++t) {
    std::vector<VertexId> mem_list;
    std::vector<VertexId> disk_list;
    ASSERT_TRUE(mem.GetPostings(t, &mem_list).ok());
    ASSERT_TRUE(disk.GetPostings(t, &disk_list).ok());
    EXPECT_EQ(mem_list, disk_list) << "term " << t;
  }
  std::remove(path.c_str());
}

TEST(DiskInvertedIndexTest, RandomizedEquivalenceWithMemory) {
  // Property: disk and memory indexes return identical postings.
  Rng rng(77);
  std::vector<std::vector<TermId>> docs(500);
  const TermId num_terms = 80;
  for (auto& doc : docs) {
    size_t len = rng.NextBounded(12);
    for (size_t i = 0; i < len; ++i) {
      doc.push_back(static_cast<TermId>(rng.NextBounded(num_terms)));
    }
  }
  DocumentStore store = MakeStore(docs);
  auto mem = MemoryInvertedIndex::Build(store, num_terms);
  std::string path = TempPath("ksp_disk_index_random.idx");
  ASSERT_TRUE(DiskInvertedIndex::Write(mem, path).ok());
  auto opened = DiskInvertedIndex::Open(path);
  ASSERT_TRUE(opened.ok());
  for (TermId t = 0; t < num_terms; ++t) {
    std::vector<VertexId> a;
    std::vector<VertexId> b;
    ASSERT_TRUE(mem.GetPostings(t, &a).ok());
    ASSERT_TRUE((*opened)->GetPostings(t, &b).ok());
    ASSERT_EQ(a, b) << "term " << t;
  }
  EXPECT_EQ((*opened)->NumPostings(), mem.NumPostings());
  std::remove(path.c_str());
}

TEST(DiskInvertedIndexTest, EmptyIndexRoundTrips) {
  DocumentStore store = MakeStore({});
  auto mem = MemoryInvertedIndex::Build(store, 0);
  std::string path = TempPath("ksp_disk_index_empty.idx");
  ASSERT_TRUE(DiskInvertedIndex::Write(mem, path).ok());
  auto opened = DiskInvertedIndex::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->NumTerms(), 0u);
  std::remove(path.c_str());
}

TEST(DiskInvertedIndexTest, OpenMissingFileFails) {
  auto opened = DiskInvertedIndex::Open(TempPath("does_not_exist.idx"));
  EXPECT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsIOError());
}

TEST(DiskInvertedIndexTest, CorruptFooterRejected) {
  DocumentStore store = MakeStore({{0, 1}});
  auto mem = MemoryInvertedIndex::Build(store, 2);
  std::string path = TempPath("ksp_disk_index_corrupt.idx");
  ASSERT_TRUE(DiskInvertedIndex::Write(mem, path).ok());
  // Flip a footer byte.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -1, SEEK_END);
    std::fputc('X', f);
    std::fclose(f);
  }
  auto opened = DiskInvertedIndex::Open(path);
  EXPECT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsCorruption());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ksp
