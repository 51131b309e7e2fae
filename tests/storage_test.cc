// Disk-resident graph substrate: the paged-file writer and the
// varint-encoded adjacency store, read back through DiskGraphAccessor
// and the shared buffer pool and validated against the in-memory Graph.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>

#include "common/rng.h"
#include "core/accessors.h"
#include "datagen/synthetic.h"
#include "storage/disk_graph.h"
#include "storage/paged_file.h"
#include "storage/shared_buffer_pool.h"

namespace ksp {
namespace {

constexpr uint32_t kPageSizes[] = {64, 128, 256};

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (name + "." + std::to_string(::getpid())))
      .string();
}

class PagedFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("ksp_paged_file_test.bin");
    auto writer = PagedFileWriter::Create(path_);
    ASSERT_TRUE(writer.ok());
    // 2.5 pages of recognizable content at page_size 64.
    std::string data;
    for (int i = 0; i < 160; ++i) data.push_back(static_cast<char>(i));
    ASSERT_TRUE((*writer)->Append(data).ok());
    EXPECT_EQ((*writer)->offset(), 160u);
    ASSERT_TRUE((*writer)->Close().ok());
    auto file = DefaultFileSystem()->NewRandomAccessFile(path_);
    ASSERT_TRUE(file.ok());
    file_ = std::move(*file);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  std::unique_ptr<RandomAccessFile> file_;
};

TEST_F(PagedFileTest, ReadsPagesIncludingShortLast) {
  SharedBufferPool pool(/*budget_bytes=*/1 << 20, /*page_size=*/64);
  const uint32_t id = pool.RegisterFile(file_.get());
  SharedBufferPool::PageRef page;
  ASSERT_TRUE(pool.Fetch(id, 0, &page, nullptr).ok());
  EXPECT_EQ(page.data().size(), 64u);
  EXPECT_EQ(page.data()[1], 1);
  ASSERT_TRUE(pool.Fetch(id, 2, &page, nullptr).ok());
  EXPECT_EQ(page.data().size(), 32u);  // Short tail.
  EXPECT_EQ(static_cast<unsigned char>(page.data()[0]), 128u);
  EXPECT_EQ(pool.GetStats().misses, 2u);
}

TEST_F(PagedFileTest, PageBeyondEndIsCorruption) {
  SharedBufferPool pool(/*budget_bytes=*/1 << 20, /*page_size=*/64);
  const uint32_t id = pool.RegisterFile(file_.get());
  SharedBufferPool::PageRef page;
  EXPECT_TRUE(pool.Fetch(id, 3, &page, nullptr).IsCorruption());
  EXPECT_FALSE(page.valid());
}

TEST_F(PagedFileTest, MissingFileIsIOError) {
  SharedBufferPool pool(/*budget_bytes=*/1 << 20, /*page_size=*/64);
  const std::string missing = TempPath("ksp_missing.bin");
  auto accessor = DiskGraphAccessor::Open(missing, missing, &pool);
  EXPECT_TRUE(accessor.status().IsIOError());
}

TEST_F(PagedFileTest, ZeroPageSizeRejected) {
  GraphBuilder builder;
  const Graph graph = builder.Finish(3);
  EXPECT_TRUE(DiskGraph::Write(graph, path_, 0).IsInvalidArgument());
}

Graph MakeRandomGraph(uint32_t n, int edges, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder;
  for (int i = 0; i < edges; ++i) {
    builder.AddEdge(static_cast<VertexId>(rng.NextBounded(n)),
                    static_cast<VertexId>(rng.NextBounded(n)), 0);
  }
  return builder.Finish(n);
}

/// Both adjacency files of a graph, read through a pool of `budget`
/// bytes. The pool is declared first so it outlives the accessor.
struct DiskCopy {
  std::string out_path;
  std::string in_path;
  std::unique_ptr<SharedBufferPool> pool;
  std::unique_ptr<DiskGraphAccessor> accessor;

  ~DiskCopy() {
    accessor.reset();
    std::remove(out_path.c_str());
    std::remove(in_path.c_str());
  }
};

void WriteDiskCopy(const Graph& graph, const std::string& name,
                   uint32_t page_size, uint64_t budget, DiskCopy* copy) {
  copy->out_path = TempPath(name + ".out");
  copy->in_path = TempPath(name + ".in");
  ASSERT_TRUE(DiskGraph::Write(graph, copy->out_path, page_size).ok());
  ASSERT_TRUE(
      DiskGraph::WriteTranspose(graph, copy->in_path, page_size).ok());
  copy->pool = std::make_unique<SharedBufferPool>(budget, page_size);
  auto accessor = DiskGraphAccessor::Open(copy->out_path, copy->in_path,
                                          copy->pool.get());
  ASSERT_TRUE(accessor.ok()) << accessor.status().ToString();
  copy->accessor = std::move(*accessor);
}

/// Compares every out- and in-adjacency record with the CSR and returns
/// how many records were assembled from several pages (the cursor's
/// scratch buffer is non-empty only after such a read).
size_t ExpectAdjacencyMatches(const Graph& graph, const DiskCopy& copy) {
  EXPECT_EQ(copy.accessor->num_vertices(), graph.num_vertices());
  EXPECT_EQ(copy.accessor->num_edges(), graph.num_edges());
  GraphCursor cursor;
  size_t spanning = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const auto out = copy.accessor->OutNeighbors(v, &cursor);
    if (!cursor.buf.empty()) ++spanning;
    const auto want_out = graph.OutNeighbors(v);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), want_out.begin(),
                           want_out.end()))
        << "out " << v;
    const auto in = copy.accessor->InNeighbors(v, &cursor);
    if (!cursor.buf.empty()) ++spanning;
    const auto want_in = graph.InNeighbors(v);
    EXPECT_TRUE(
        std::equal(in.begin(), in.end(), want_in.begin(), want_in.end()))
        << "in " << v;
    // The one-page path must not keep its pin past the decode.
    EXPECT_EQ(copy.pool->GetStats().pinned_pages, 0u);
  }
  EXPECT_TRUE(cursor.status.ok()) << cursor.status.ToString();
  return spanning;
}

TEST(DiskGraphTest, AdjacencyMatchesMemoryGraph) {
  const Graph graph = MakeRandomGraph(500, 3000, 99);
  for (const uint32_t page_size : kPageSizes) {
    SCOPED_TRACE(page_size);
    DiskCopy copy;
    WriteDiskCopy(graph, "ksp_disk_graph", page_size,
                  /*budget=*/4 * page_size, &copy);
    const size_t spanning = ExpectAdjacencyMatches(graph, copy);
    // Both the single-page path and the spanning fallback ran.
    EXPECT_GT(spanning, 0u);
    EXPECT_LT(spanning, 2u * graph.num_vertices());
  }
}

TEST(DiskGraphTest, BfsMatchesMemoryBfs) {
  const Graph graph = MakeRandomGraph(300, 1200, 17);
  using Visit = std::vector<std::pair<VertexId, uint32_t>>;
  auto bfs = [&](VertexId root, auto&& neighbors_of) {
    Visit visited{{root, 0}};
    std::vector<bool> seen(graph.num_vertices(), false);
    seen[root] = true;
    for (size_t qi = 0; qi < visited.size(); ++qi) {
      const auto [v, d] = visited[qi];
      for (VertexId w : neighbors_of(v)) {
        if (!seen[w]) {
          seen[w] = true;
          visited.emplace_back(w, d + 1);
        }
      }
    }
    return visited;
  };
  auto memory = [&](VertexId v) { return graph.OutNeighbors(v); };

  for (const uint32_t page_size : kPageSizes) {
    SCOPED_TRACE(page_size);
    DiskCopy cold;
    WriteDiskCopy(graph, "ksp_disk_graph_bfs", page_size,
                  /*budget=*/8 * page_size, &cold);
    GraphCursor cursor;
    auto disk = [&](VertexId v) {
      return cold.accessor->OutNeighbors(v, &cursor);
    };
    for (VertexId root : {0u, 7u, 299u}) {
      EXPECT_EQ(bfs(root, disk), bfs(root, memory));
    }
    EXPECT_TRUE(cursor.status.ok());

    // With a pool that fits both files, a repeated BFS is IO-free.
    DiskCopy warm;
    WriteDiskCopy(graph, "ksp_disk_graph_bfs_warm", page_size,
                  /*budget=*/1 << 20, &warm);
    auto warm_disk = [&](VertexId v) {
      return warm.accessor->OutNeighbors(v, &cursor);
    };
    bfs(0, warm_disk);
    const uint64_t misses_before = warm.pool->GetStats().misses;
    EXPECT_EQ(bfs(0, warm_disk), bfs(0, memory));
    EXPECT_EQ(warm.pool->GetStats().misses, misses_before);
  }
}

TEST(DiskGraphTest, EmptyGraph) {
  GraphBuilder builder;
  const Graph graph = builder.Finish(0);
  for (const uint32_t page_size : kPageSizes) {
    DiskCopy copy;
    WriteDiskCopy(graph, "ksp_disk_graph_empty", page_size,
                  /*budget=*/2 * page_size, &copy);
    ASSERT_NE(copy.accessor, nullptr);
    EXPECT_EQ(copy.accessor->num_vertices(), 0u);
    EXPECT_EQ(copy.accessor->num_edges(), 0u);
  }
}

TEST(DiskGraphTest, PageSizeMismatchRejected) {
  const Graph graph = MakeRandomGraph(10, 20, 3);
  const std::string out_path = TempPath("ksp_disk_graph_ps.out");
  const std::string in_path = TempPath("ksp_disk_graph_ps.in");
  for (const uint32_t page_size : kPageSizes) {
    ASSERT_TRUE(DiskGraph::Write(graph, out_path, page_size).ok());
    ASSERT_TRUE(DiskGraph::WriteTranspose(graph, in_path, page_size).ok());
    SharedBufferPool pool(/*budget_bytes=*/1 << 20, 2 * page_size);
    auto accessor = DiskGraphAccessor::Open(out_path, in_path, &pool);
    EXPECT_TRUE(accessor.status().IsInvalidArgument()) << page_size;
  }
  std::remove(out_path.c_str());
  std::remove(in_path.c_str());
}

TEST(DiskGraphTest, CorruptHeaderRejected) {
  const std::string path = TempPath("ksp_disk_graph_corrupt.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "garbage garbage garbage garbage!";
  }
  for (const uint32_t page_size : kPageSizes) {
    SharedBufferPool pool(/*budget_bytes=*/1 << 20, page_size);
    auto accessor = DiskGraphAccessor::Open(path, path, &pool);
    EXPECT_TRUE(accessor.status().IsCorruption()) << page_size;
  }
  std::remove(path.c_str());
}

TEST(DiskGraphTest, SyntheticKbGraphRoundTrip) {
  auto kb = GenerateKnowledgeBase(SyntheticProfile::YagoLike(2000));
  ASSERT_TRUE(kb.ok());
  for (const uint32_t page_size : kPageSizes) {
    SCOPED_TRACE(page_size);
    DiskCopy copy;
    WriteDiskCopy((*kb)->graph(), "ksp_disk_graph_kb", page_size,
                  /*budget=*/16 * page_size, &copy);
    EXPECT_EQ(copy.accessor->num_edges(), (*kb)->num_edges());
    EXPECT_GT(ExpectAdjacencyMatches((*kb)->graph(), copy), 0u);
  }
}

}  // namespace
}  // namespace ksp
