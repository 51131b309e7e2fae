#include "reach/reachability_index.h"

#include <algorithm>
#include <numeric>

#include "common/io_util.h"

#include "reach/csr.h"
#include "reach/tarjan.h"

namespace ksp {

namespace {

/// Sorted-list intersection test (labels are sorted by hub rank).
bool Intersects(std::span<const uint32_t> a, std::span<const uint32_t> b) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

}  // namespace

ReachabilityIndex ReachabilityIndex::Build(const Graph& graph,
                                           const DocumentStore& docs,
                                           TermId num_terms,
                                           bool undirected_edges) {
  ReachabilityIndex index;
  const uint32_t n = graph.num_vertices();
  index.num_base_vertices_ = n;
  index.num_terms_ = num_terms;

  // 1. Augmented graph: base edges plus one virtual vertex per term.
  const uint32_t big_n = n + num_terms;
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  edges.reserve(graph.num_edges() + docs.TotalPostings());
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId w : graph.OutNeighbors(v)) {
      edges.emplace_back(v, w);
      if (undirected_edges) edges.emplace_back(w, v);
    }
    for (TermId t : docs.Terms(v)) edges.emplace_back(v, n + t);
  }
  Csr augmented = Csr::FromEdges(big_n, std::move(edges), /*dedup=*/false);

  // 2. SCC condensation.
  SccDecomposition scc = ComputeScc(augmented);
  index.component_of_ = scc.component_of;
  const uint32_t c = scc.num_components;
  Csr dag = CondenseDag(augmented, scc);
  Csr rdag = dag.Reversed();
  augmented = Csr();  // Release.

  // 3. Hub order: high-degree components first.
  std::vector<uint32_t> order(c);
  std::iota(order.begin(), order.end(), 0);
  std::vector<uint64_t> degree(c);
  for (uint32_t comp = 0; comp < c; ++comp) {
    degree[comp] = (dag.offsets[comp + 1] - dag.offsets[comp]) +
                   (rdag.offsets[comp + 1] - rdag.offsets[comp]);
  }
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return degree[a] > degree[b];
  });

  // 4. Pruned 2-hop labeling over the DAG.
  std::vector<std::vector<uint32_t>> lin(c);
  std::vector<std::vector<uint32_t>> lout(c);
  std::vector<uint32_t> queue;
  std::vector<uint32_t> epoch(c, 0xFFFFFFFFu);

  auto query_labels = [&](uint32_t from, uint32_t to) {
    return Intersects(std::span<const uint32_t>(lout[from]),
                      std::span<const uint32_t>(lin[to]));
  };

  for (uint32_t rank = 0; rank < c; ++rank) {
    const uint32_t h = order[rank];
    // Self labels first so later queries via h succeed.
    lin[h].push_back(rank);
    lout[h].push_back(rank);

    // Forward BFS: h reaches u  =>  rank(h) ∈ Lin[u].
    queue.clear();
    queue.push_back(h);
    epoch[h] = rank;
    for (size_t qi = 0; qi < queue.size(); ++qi) {
      uint32_t u = queue[qi];
      for (uint32_t w : dag.Neighbors(u)) {
        if (epoch[w] == rank) continue;
        epoch[w] = rank;
        if (query_labels(h, w)) continue;  // Covered by an earlier hub.
        lin[w].push_back(rank);
        queue.push_back(w);
      }
    }

    // Backward BFS: u reaches h  =>  rank(h) ∈ Lout[u].
    queue.clear();
    queue.push_back(h);
    // Reuse epoch with a distinct generation tag for the backward pass.
    std::vector<uint32_t>& bepoch = epoch;
    const uint32_t tag = rank | 0x80000000u;
    bepoch[h] = tag;
    for (size_t qi = 0; qi < queue.size(); ++qi) {
      uint32_t u = queue[qi];
      for (uint32_t w : rdag.Neighbors(u)) {
        if (bepoch[w] == tag) continue;
        bepoch[w] = tag;
        if (query_labels(w, h)) continue;
        lout[w].push_back(rank);
        queue.push_back(w);
      }
    }
  }

  // 5. Pack into CSR.
  index.in_offsets_.assign(c + 1, 0);
  index.out_offsets_.assign(c + 1, 0);
  for (uint32_t comp = 0; comp < c; ++comp) {
    index.in_offsets_[comp + 1] = index.in_offsets_[comp] + lin[comp].size();
    index.out_offsets_[comp + 1] =
        index.out_offsets_[comp] + lout[comp].size();
  }
  index.in_labels_.reserve(index.in_offsets_[c]);
  index.out_labels_.reserve(index.out_offsets_[c]);
  for (uint32_t comp = 0; comp < c; ++comp) {
    index.in_labels_.insert(index.in_labels_.end(), lin[comp].begin(),
                            lin[comp].end());
    index.out_labels_.insert(index.out_labels_.end(), lout[comp].begin(),
                             lout[comp].end());
  }
  return index;
}

bool ReachabilityIndex::QueryComponents(uint32_t cu, uint32_t cv) const {
  if (cu == cv) return true;
  return Intersects(OutLabels(cu), InLabels(cv));
}

bool ReachabilityIndex::Reaches(VertexId v, TermId term) const {
  if (term >= num_terms_) return false;
  const uint32_t term_vertex = num_base_vertices_ + term;
  return QueryComponents(component_of_[v], component_of_[term_vertex]);
}

bool ReachabilityIndex::ReachesVertex(VertexId u, VertexId v) const {
  return QueryComponents(component_of_[u], component_of_[v]);
}

namespace {
constexpr uint32_t kReachMagic = 0x4B535052u;  // "KSPR"
}  // namespace

namespace {
constexpr uint32_t kReachFormatVersion = 2;
}  // namespace

Status ReachabilityIndex::Save(const std::string& path, FileSystem* fs,
                               ArtifactInfo* info) const {
  if (fs == nullptr) fs = DefaultFileSystem();
  return WriteArtifactAtomically(
      fs, path, kReachMagic, kReachFormatVersion,
      [this](ChecksummedWriter* w) -> Status {
        std::string meta;
        AppendPod(&meta, num_base_vertices_);
        AppendPod(&meta, num_terms_);
        KSP_RETURN_NOT_OK(w->WriteSection(meta));
        // One section per CSR vector: each element count is validated
        // against its own section length on load.
        for (const auto* vec32 :
             {&component_of_, &out_labels_, &in_labels_}) {
          KSP_RETURN_NOT_OK(w->WritePodVectorSection(*vec32));
        }
        for (const auto* vec64 : {&out_offsets_, &in_offsets_}) {
          KSP_RETURN_NOT_OK(w->WritePodVectorSection(*vec64));
        }
        return Status::OK();
      },
      info);
}

Result<ReachabilityIndex> ReachabilityIndex::Load(const std::string& path,
                                                  FileSystem* fs) {
  if (fs == nullptr) fs = DefaultFileSystem();
  auto file = fs->NewRandomAccessFile(path);
  if (!file.ok()) return file.status();
  ChecksummedReader reader(file->get());
  uint32_t version = 0;
  KSP_RETURN_NOT_OK(reader.Open(kReachMagic, &version));
  if (version != kReachFormatVersion) {
    return CorruptionAt(path, 4, "unsupported reachability format version " +
                                     std::to_string(version));
  }
  ReachabilityIndex index;
  std::string meta;
  const uint64_t meta_offset = reader.offset();
  KSP_RETURN_NOT_OK(reader.ReadSection(&meta));
  size_t pos = 0;
  Status st = ParsePod(meta, &pos, &index.num_base_vertices_);
  if (st.ok()) st = ParsePod(meta, &pos, &index.num_terms_);
  if (!st.ok() || pos != meta.size()) {
    return CorruptionAt(path, meta_offset, "malformed meta section");
  }
  const uint64_t vectors_at = reader.offset();
  KSP_RETURN_NOT_OK(reader.ReadPodVectorSection(&index.component_of_));
  KSP_RETURN_NOT_OK(reader.ReadPodVectorSection(&index.out_labels_));
  KSP_RETURN_NOT_OK(reader.ReadPodVectorSection(&index.in_labels_));
  KSP_RETURN_NOT_OK(reader.ReadPodVectorSection(&index.out_offsets_));
  KSP_RETURN_NOT_OK(reader.ReadPodVectorSection(&index.in_offsets_));
  KSP_RETURN_NOT_OK(reader.ExpectEnd());

  // Queries index component_of_ by vertex, both label CSRs by component
  // and compare labels as component ranks, all unchecked: check them
  // here, once.
  auto corrupt = [&](const std::string& msg) {
    return CorruptionAt(path, vectors_at, msg);
  };
  if (index.component_of_.size() !=
      uint64_t{index.num_base_vertices_} + index.num_terms_) {
    return corrupt("component map does not cover every vertex and term");
  }
  if (index.out_offsets_.empty() ||
      index.out_offsets_.size() != index.in_offsets_.size()) {
    return corrupt("label offset arrays differ in component count");
  }
  const uint64_t num_components = index.out_offsets_.size() - 1;
  for (uint32_t comp : index.component_of_) {
    if (comp >= num_components) return corrupt("component id out of range");
  }
  for (const auto& [offsets, labels] :
       {std::pair{&index.out_offsets_, &index.out_labels_},
        std::pair{&index.in_offsets_, &index.in_labels_}}) {
    if (offsets->front() != 0 || offsets->back() != labels->size() ||
        !std::is_sorted(offsets->begin(), offsets->end())) {
      return corrupt(
          "label offsets do not run non-decreasing from 0 to the label "
          "count");
    }
    for (uint32_t label : *labels) {
      if (label >= num_components) return corrupt("label out of range");
    }
  }
  return index;
}

uint64_t ReachabilityIndex::NumLabelEntries() const {
  return in_labels_.size() + out_labels_.size();
}

uint64_t ReachabilityIndex::MemoryUsageBytes() const {
  return component_of_.capacity() * sizeof(uint32_t) +
         (in_offsets_.capacity() + out_offsets_.capacity()) *
             sizeof(uint64_t) +
         (in_labels_.capacity() + out_labels_.capacity()) * sizeof(uint32_t);
}

}  // namespace ksp
