#include "storage/disk_graph.h"

#include <functional>
#include <span>

#include "common/varint.h"
#include "storage/paged_file.h"

namespace ksp {

namespace {

/// Writes one adjacency file; `neighbors_of` selects the edge
/// direction (out-adjacency or the transpose). Neighbour lists must be
/// ascending (non-strict) for the delta encoding.
Status WriteAdjacencyFile(
    const Graph& graph, const std::string& path, uint32_t page_size,
    const std::function<std::span<const VertexId>(VertexId)>&
        neighbors_of) {
  if (page_size == 0) {
    return Status::InvalidArgument("page_size must be positive");
  }
  KSP_ASSIGN_OR_RETURN(auto writer, PagedFileWriter::Create(path));

  const VertexId n = graph.num_vertices();
  std::string header;
  PutFixed32(&header, DiskGraph::kMagic);
  PutFixed32(&header, page_size);
  PutFixed64(&header, n);
  PutFixed64(&header, graph.num_edges());
  KSP_RETURN_NOT_OK(writer->Append(header));

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
  KSP_RETURN_NOT_OK(writer->Append(table));
  KSP_RETURN_NOT_OK(writer->Append(data));

  std::string footer;
  PutFixed32(&footer, DiskGraph::kMagic);
  KSP_RETURN_NOT_OK(writer->Append(footer));
  return writer->Close();
}

}  // namespace

Status DiskGraph::Write(const Graph& graph, const std::string& path,
                        uint32_t page_size) {
  return WriteAdjacencyFile(
      graph, path, page_size,
      [&graph](VertexId v) { return graph.OutNeighbors(v); });
}

Status DiskGraph::WriteTranspose(const Graph& graph,
                                 const std::string& path,
                                 uint32_t page_size) {
  return WriteAdjacencyFile(
      graph, path, page_size,
      [&graph](VertexId v) { return graph.InNeighbors(v); });
}

}  // namespace ksp
