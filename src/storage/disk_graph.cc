#include "storage/disk_graph.h"

#include <functional>
#include <span>

#include "common/io_util.h"
#include "common/varint.h"

namespace ksp {

namespace {

/// Writes one adjacency file; `neighbors_of` selects the edge
/// direction (out-adjacency or the transpose). Neighbour lists must be
/// ascending (non-strict) for the delta encoding.
Status WriteAdjacencyFile(
    const Graph& graph, const std::string& path, uint32_t page_size,
    FileSystem* fs,
    const std::function<std::span<const VertexId>(VertexId)>&
        neighbors_of) {
  if (page_size == 0) {
    return Status::InvalidArgument("page_size must be positive");
  }
  if (fs == nullptr) fs = DefaultFileSystem();

  const VertexId n = graph.num_vertices();
  std::string header;
  PutFixed32(&header, DiskGraph::kMagic);
  PutFixed32(&header, page_size);
  PutFixed64(&header, n);
  PutFixed64(&header, graph.num_edges());

  // Encode all adjacency records first to learn their offsets.
  const uint64_t table_begin = header.size();
  const uint64_t data_begin = table_begin + (n + 1) * 8ULL;
  std::string table;
  table.reserve((n + 1) * 8ULL);
  std::string data;
  uint64_t cursor = data_begin;
  for (VertexId v = 0; v < n; ++v) {
    PutFixed64(&table, cursor);
    auto neighbors = neighbors_of(v);
    std::string record;
    PutVarint64(&record, neighbors.size());
    VertexId prev = 0;
    for (size_t i = 0; i < neighbors.size(); ++i) {
      PutVarint64(&record, i == 0 ? neighbors[i] : neighbors[i] - prev);
      prev = neighbors[i];
    }
    cursor += record.size();
    data += record;
  }
  PutFixed64(&table, cursor);

  std::string footer;
  PutFixed32(&footer, DiskGraph::kMagic);
  return WriteFileAtomically(fs, path, [&](WritableFile* file) {
    for (const std::string* part : {&header, &table, &data, &footer}) {
      KSP_RETURN_NOT_OK(file->Append(*part));
    }
    return Status::OK();
  });
}

}  // namespace

Status DiskGraph::Write(const Graph& graph, const std::string& path,
                        uint32_t page_size, FileSystem* fs) {
  return WriteAdjacencyFile(
      graph, path, page_size, fs,
      [&graph](VertexId v) { return graph.OutNeighbors(v); });
}

Status DiskGraph::WriteTranspose(const Graph& graph,
                                 const std::string& path,
                                 uint32_t page_size, FileSystem* fs) {
  return WriteAdjacencyFile(
      graph, path, page_size, fs,
      [&graph](VertexId v) { return graph.InNeighbors(v); });
}

}  // namespace ksp
