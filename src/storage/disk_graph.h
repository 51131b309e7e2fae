#ifndef KSP_STORAGE_DISK_GRAPH_H_
#define KSP_STORAGE_DISK_GRAPH_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "rdf/graph.h"

namespace ksp {

/// Writer of the disk-resident adjacency store: the "disk-based graph
/// representation for larger-scale data" of §3 footnote 1. The
/// adjacency region holds, per vertex, a varint count followed by
/// varint-delta-encoded neighbour ids; an offset table gives each
/// vertex's start byte. DiskGraphAccessor (core/accessors.h) reads the
/// files through the shared buffer pool.
///
/// File layout:
///   [magic u32][page_size u32][num_vertices u64][num_edges u64]
///   [offset table: num_vertices+1 x fixed64]
///   [adjacency region]
///   [magic u32]
class DiskGraph {
 public:
  static constexpr uint32_t kMagic = 0x4B535047u;  // "KSPG"
  static constexpr uint32_t kDefaultPageSize = 4096;

  /// Serializes the out-adjacency of `graph` to `path`. `page_size` is
  /// recorded for the reader, whose pool must use the same page size;
  /// 0 is InvalidArgument.
  static Status Write(const Graph& graph, const std::string& path,
                      uint32_t page_size = kDefaultPageSize);

  /// Serializes the in-adjacency (transpose) of `graph` to `path`, in
  /// the same file format: record v holds InNeighbors(v). Backward
  /// expansion (TA) and undirected BFS read this file so the disk
  /// backend sees the exact neighbour order of the in-memory CSR.
  static Status WriteTranspose(const Graph& graph, const std::string& path,
                               uint32_t page_size = kDefaultPageSize);
};

}  // namespace ksp

#endif  // KSP_STORAGE_DISK_GRAPH_H_
