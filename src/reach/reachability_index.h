#ifndef KSP_REACH_REACHABILITY_INDEX_H_
#define KSP_REACH_REACHABILITY_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "rdf/graph.h"
#include "text/document_store.h"

namespace ksp {

class FileSystem;
struct ArtifactInfo;

/// Reachability oracle for Pruning Rule 1 (§4.1): answers whether a vertex
/// can reach *any* occurrence of a keyword by directed paths.
///
/// Construction follows the paper: a virtual vertex v_t is added for every
/// term t with an edge u -> v_t for every vertex u whose document contains
/// t; a single vertex-to-v_t reachability query then covers all of t's
/// postings. The oracle itself is built as in TF-Label's family: SCC
/// condensation to a DAG, then a pruned 2-hop (hub) labeling whose queries
/// are sorted-list intersections — microseconds per query.
class ReachabilityIndex {
 public:
  /// Builds the index over `graph` augmented with term vertices for all
  /// terms in [0, num_terms) of `docs`.
  static ReachabilityIndex Build(const Graph& graph,
                                 const DocumentStore& docs, TermId num_terms,
                                 bool undirected_edges = false);

  /// True iff some vertex whose document contains `term` is reachable from
  /// `v` (v itself counts).
  bool Reaches(VertexId v, TermId term) const;

  /// Plain vertex-to-vertex reachability (u == v is true).
  bool ReachesVertex(VertexId u, VertexId v) const;

  /// Persists the labeling (the expensive preprocessing artifact —
  /// Table 5 charges TF-Label construction in the tens of minutes).
  /// Save writes the checksummed v2 container atomically, each CSR array
  /// one section written from its own memory. Load reads each array
  /// straight into place, verifies every section CRC, and checks the
  /// CSR the queries index unchecked: a component for every vertex and
  /// term vertex, label offsets non-decreasing from 0 to the label
  /// counts, every component id and label in range.
  Status Save(const std::string& path, FileSystem* fs = nullptr,
              ArtifactInfo* info = nullptr) const;
  static Result<ReachabilityIndex> Load(const std::string& path,
                                        FileSystem* fs = nullptr);

  /// Total number of hub-label entries (index size metric).
  uint64_t NumLabelEntries() const;
  uint64_t MemoryUsageBytes() const;

  uint32_t num_base_vertices() const { return num_base_vertices_; }
  /// Terms the index was built over; Reaches is false at or past it.
  TermId num_terms() const { return num_terms_; }

 private:
  ReachabilityIndex() = default;

  bool QueryComponents(uint32_t cu, uint32_t cv) const;

  std::span<const uint32_t> OutLabels(uint32_t comp) const {
    return {out_labels_.data() + out_offsets_[comp],
            out_labels_.data() + out_offsets_[comp + 1]};
  }
  std::span<const uint32_t> InLabels(uint32_t comp) const {
    return {in_labels_.data() + in_offsets_[comp],
            in_labels_.data() + in_offsets_[comp + 1]};
  }

  uint32_t num_base_vertices_ = 0;
  TermId num_terms_ = 0;
  /// Component id per augmented vertex (base vertices, then term vertices).
  std::vector<uint32_t> component_of_;
  /// 2-hop labels over DAG components, CSR-packed, sorted by hub rank.
  std::vector<uint64_t> out_offsets_;
  std::vector<uint32_t> out_labels_;
  std::vector<uint64_t> in_offsets_;
  std::vector<uint32_t> in_labels_;
};

}  // namespace ksp

#endif  // KSP_REACH_REACHABILITY_INDEX_H_
