#ifndef KSP_CORE_ACCESSORS_H_
#define KSP_CORE_ACCESSORS_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/file.h"
#include "common/io_stats.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "rdf/graph.h"
#include "storage/shared_buffer_pool.h"
#include "text/inverted_index.h"

namespace ksp {

/// Per-thread scratch for GraphAccessor expansions. Disk accessors
/// decode adjacency records into it (a record inside one page straight
/// from the pinned frame, one spanning pages via `buf`) and accumulate
/// page-I/O counters; the memory accessor returns CSR spans and leaves
/// it untouched.
/// `status` is sticky: expansion loops stay branch-free and callers
/// check it once per BFS (an error also yields an empty span, so a BFS
/// terminates promptly after a failure).
struct GraphCursor {
  std::vector<VertexId> out_scratch;
  std::vector<VertexId> in_scratch;
  std::string buf;
  PageIoCounters io;
  Status status;

  void ResetIo() {
    io = PageIoCounters();
    status = Status::OK();
  }
};

/// Neighbor-expansion seam for every BFS in the engine. Implementations
/// must return neighbours in exactly the order of the in-memory CSR
/// (ascending, duplicates preserved) so BFS visit order — and with it
/// every prune decision, dynamic bound, and committed counter — is
/// backend-invariant.
class GraphAccessor {
 public:
  virtual ~GraphAccessor() = default;

  virtual VertexId num_vertices() const = 0;
  virtual uint64_t num_edges() const = 0;
  /// The span stays valid until the next Out/InNeighbors call on the
  /// same cursor (memory accessor: for the graph's lifetime).
  virtual std::span<const VertexId> OutNeighbors(VertexId v,
                                                 GraphCursor* c) const = 0;
  virtual std::span<const VertexId> InNeighbors(VertexId v,
                                                GraphCursor* c) const = 0;

  /// Hints that v's adjacency will be expanded a few pops from now (the
  /// flat BFS frontier's look-ahead). Default no-op: for the disk
  /// accessors a page fetch is not a cache-line hint. Never changes the
  /// cursor's observable state.
  virtual void Prefetch(VertexId v, GraphCursor* c) const {
    (void)v;
    (void)c;
  }

  /// The in-memory CSR when this accessor is a zero-copy view over one,
  /// else nullptr. Lets the BFS hot loop bypass two virtual calls per
  /// pop on the memory backend; the spans returned are the ones
  /// Out/InNeighbors would return, so visit order is unchanged.
  virtual const Graph* memory_graph() const { return nullptr; }
};

/// Zero-copy accessor over the in-memory CSR.
class MemoryGraphAccessor final : public GraphAccessor {
 public:
  explicit MemoryGraphAccessor(const Graph* graph) : graph_(graph) {}

  VertexId num_vertices() const override { return graph_->num_vertices(); }
  uint64_t num_edges() const override { return graph_->num_edges(); }
  std::span<const VertexId> OutNeighbors(VertexId v,
                                         GraphCursor*) const override {
    return graph_->OutNeighbors(v);
  }
  std::span<const VertexId> InNeighbors(VertexId v,
                                        GraphCursor*) const override {
    return graph_->InNeighbors(v);
  }
  void Prefetch(VertexId v, GraphCursor*) const override {
    graph_->PrefetchOut(v);
  }
  const Graph* memory_graph() const override { return graph_; }

 private:
  const Graph* graph_;
};

/// Adjacency expansion over two DiskGraph-format files (out-adjacency
/// and its transpose) through a shared buffer pool. Only the two offset
/// tables are memory-resident, mirroring the paper's disk-based graph
/// representation.
class DiskGraphAccessor final : public GraphAccessor {
 public:
  /// Opens both adjacency files and registers them with `pool` (which
  /// must outlive the accessor).
  static Result<std::unique_ptr<DiskGraphAccessor>> Open(
      const std::string& out_path, const std::string& in_path,
      SharedBufferPool* pool, FileSystem* fs = nullptr);

  ~DiskGraphAccessor() override;

  DiskGraphAccessor(const DiskGraphAccessor&) = delete;
  DiskGraphAccessor& operator=(const DiskGraphAccessor&) = delete;

  VertexId num_vertices() const override { return num_vertices_; }
  uint64_t num_edges() const override { return num_edges_; }
  std::span<const VertexId> OutNeighbors(VertexId v,
                                         GraphCursor* c) const override;
  std::span<const VertexId> InNeighbors(VertexId v,
                                        GraphCursor* c) const override;

 private:
  struct Direction {
    std::unique_ptr<RandomAccessFile> file;
    uint32_t file_id = 0;
    /// Absolute byte offsets of each vertex's record (size n+1).
    std::vector<uint64_t> offsets;
  };

  DiskGraphAccessor() = default;

  static Status OpenDirection(const std::string& path, FileSystem* fs,
                              SharedBufferPool* pool, Direction* dir,
                              VertexId* num_vertices, uint64_t* num_edges);
  std::span<const VertexId> Decode(const Direction& dir, VertexId v,
                                   std::vector<VertexId>* scratch,
                                   GraphCursor* c) const;

  SharedBufferPool* pool_ = nullptr;
  Direction out_;
  Direction in_;
  VertexId num_vertices_ = 0;
  uint64_t num_edges_ = 0;
};

/// Keyword → sorted place-vertex posting list seam. `backing` is the
/// caller-owned buffer a disk implementation decodes into; `*view`
/// aliases either `*backing` or the memory index's own storage and
/// stays valid for the backing buffer's lifetime.
class PostingsAccessor {
 public:
  virtual ~PostingsAccessor() = default;

  virtual Status Fetch(TermId term, std::vector<VertexId>* backing,
                       std::span<const VertexId>* view,
                       PageIoCounters* io) const = 0;
};

/// Accessor over any InvertedIndex, zero-copy when the index offers
/// PostingsSpan (memory index) and copying via GetPostings otherwise.
class MemoryPostingsAccessor final : public PostingsAccessor {
 public:
  explicit MemoryPostingsAccessor(const InvertedIndex* index)
      : index_(index) {}

  Status Fetch(TermId term, std::vector<VertexId>* backing,
               std::span<const VertexId>* view,
               PageIoCounters* io) const override;

 private:
  const InvertedIndex* index_;
};

/// Posting decode through the shared buffer pool: the DiskInvertedIndex
/// validates the container and owns the offset table; this accessor
/// re-opens the file for pooled access so postings pages share the
/// database-wide byte budget with graph and R-tree pages.
class DiskPostingsAccessor final : public PostingsAccessor {
 public:
  static Result<std::unique_ptr<DiskPostingsAccessor>> Open(
      const std::string& path, SharedBufferPool* pool,
      FileSystem* fs = nullptr);

  ~DiskPostingsAccessor() override;

  DiskPostingsAccessor(const DiskPostingsAccessor&) = delete;
  DiskPostingsAccessor& operator=(const DiskPostingsAccessor&) = delete;

  Status Fetch(TermId term, std::vector<VertexId>* backing,
               std::span<const VertexId>* view,
               PageIoCounters* io) const override;

  const DiskInvertedIndex& index() const { return *index_; }

 private:
  DiskPostingsAccessor() = default;

  std::unique_ptr<DiskInvertedIndex> index_;
  std::unique_ptr<RandomAccessFile> file_;
  SharedBufferPool* pool_ = nullptr;
  uint32_t file_id_ = 0;
};

}  // namespace ksp

#endif  // KSP_CORE_ACCESSORS_H_
