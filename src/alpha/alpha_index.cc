#include "alpha/alpha_index.h"

#include <algorithm>

#include "common/io_util.h"
#include "common/logging.h"

namespace ksp {

namespace {

/// One entry's word neighborhood: [begin, end) of Build's arena.
struct WnRange {
  uint64_t begin = 0;
  uint64_t end = 0;
};

}  // namespace

AlphaIndex AlphaIndex::Build(const KnowledgeBase& kb, const RTree& rtree,
                             uint32_t alpha, bool undirected_edges) {
  KSP_CHECK(alpha >= 1) << "alpha must be positive";
  AlphaIndex index;
  index.alpha_ = alpha;
  index.num_places_ = kb.num_places();
  index.num_nodes_ = static_cast<uint32_t>(rtree.num_nodes());

  const Graph& graph = kb.graph();
  const DocumentStore& docs = kb.documents();
  const TermId num_terms = kb.num_terms();

  // One epoch per BFS and per node merge: visit_epoch / term_epoch hold
  // the epoch that last touched a vertex / term, so no scratch is reset
  // between roots.
  uint32_t epoch = 0;
  std::vector<uint32_t> visit_epoch(graph.num_vertices(), 0xFFFFFFFFu);
  std::vector<uint32_t> term_epoch(num_terms, 0xFFFFFFFFu);

  // Every WN lives in one entry-major arena of parallel term / distance
  // arrays; wns[entry] is its slice.
  std::vector<TermId> arena_terms;
  std::vector<uint8_t> arena_distances;
  std::vector<WnRange> wns(index.num_places_ + index.num_nodes_);

  // --- Place WNs: bounded BFS from each leaf payload of `rtree`, kept
  // in discovery order. Places outside the tree (another shard's tile)
  // keep empty WNs, so the work follows the tree, not the KB. ---
  std::vector<VertexId> frontier;
  std::vector<VertexId> next_frontier;
  rtree.ForEachLeafEntry([&](const RTree::Entry& e) {
    KSP_CHECK(e.id < index.num_places_)
        << "R-tree payload " << e.id << " is not a place of the KB";
    const PlaceId p = static_cast<PlaceId>(e.id);
    const VertexId root = kb.place_vertex(p);
    // A repeated payload rebuilds the same WN; the earlier copy is left
    // unreferenced in the arena.
    wns[p].begin = arena_terms.size();
    ++epoch;
    frontier.clear();
    frontier.push_back(root);
    visit_epoch[root] = epoch;
    for (uint32_t depth = 0; depth <= alpha && !frontier.empty(); ++depth) {
      for (VertexId v : frontier) {
        for (TermId t : docs.Terms(v)) {
          if (term_epoch[t] != epoch) {
            term_epoch[t] = epoch;
            arena_terms.push_back(t);
            arena_distances.push_back(static_cast<uint8_t>(depth));
          }
        }
      }
      if (depth == alpha) break;
      next_frontier.clear();
      for (VertexId v : frontier) {
        for (VertexId w : graph.OutNeighbors(v)) {
          if (visit_epoch[w] != epoch) {
            visit_epoch[w] = epoch;
            next_frontier.push_back(w);
          }
        }
        if (undirected_edges) {
          for (VertexId w : graph.InNeighbors(v)) {
            if (visit_epoch[w] != epoch) {
              visit_epoch[w] = epoch;
              next_frontier.push_back(w);
            }
          }
        }
      }
      frontier.swap(next_frontier);
    }
    wns[p].end = arena_terms.size();
  });

  // --- Node WNs bottom-up (children before parents via post-order):
  // the term-wise minimum over the children, appended to the arena —
  // term_epoch marks the terms already in the node's slice and term_slot
  // holds their arena position. Appends may reallocate the arena, so
  // children are read by index. ---
  if (!rtree.empty()) {
    std::vector<uint32_t> postorder;
    postorder.reserve(rtree.num_nodes());
    std::vector<std::pair<uint32_t, bool>> stack{{rtree.root(), false}};
    while (!stack.empty()) {
      auto [node_id, expanded] = stack.back();
      stack.pop_back();
      if (expanded) {
        postorder.push_back(node_id);
        continue;
      }
      stack.emplace_back(node_id, true);
      const RTree::Node& node = rtree.node(node_id);
      if (!node.is_leaf) {
        for (const RTree::Entry& e : node.entries) {
          stack.emplace_back(static_cast<uint32_t>(e.id), false);
        }
      }
    }
    std::vector<uint64_t> term_slot(num_terms);
    for (uint32_t node_id : postorder) {
      const RTree::Node& node = rtree.node(node_id);
      ++epoch;
      const uint64_t begin = arena_terms.size();
      for (const RTree::Entry& e : node.entries) {
        const uint32_t child = node.is_leaf
                                   ? static_cast<PlaceId>(e.id)
                                   : index.num_places_ +
                                         static_cast<uint32_t>(e.id);
        const WnRange range = wns[child];
        for (uint64_t i = range.begin; i < range.end; ++i) {
          const TermId t = arena_terms[i];
          const uint8_t distance = arena_distances[i];
          if (term_epoch[t] != epoch) {
            term_epoch[t] = epoch;
            term_slot[t] = arena_terms.size();
            arena_terms.push_back(t);
            arena_distances.push_back(distance);
          } else {
            uint8_t& kept = arena_distances[term_slot[t]];
            kept = std::min(kept, distance);
          }
        }
      }
      wns[index.num_places_ + node_id] = {begin, arena_terms.size()};
    }
  }

  // --- Invert: term -> (entry, dist). A counting sort over entries in
  // ascending order, so each term's list comes out sorted by entry
  // whatever order the WNs hold their terms in. cursor[t] first counts
  // t's postings, then holds t's next write position. ---
  std::vector<uint64_t> cursor(num_terms, 0);
  for (const WnRange& range : wns) {
    for (uint64_t i = range.begin; i < range.end; ++i) {
      ++cursor[arena_terms[i]];
    }
  }
  index.offsets_.assign(num_terms + 1, 0);
  for (TermId t = 0; t < num_terms; ++t) {
    index.offsets_[t + 1] = index.offsets_[t] + cursor[t];
    cursor[t] = index.offsets_[t];
  }
  index.entries_.resize(index.offsets_[num_terms]);
  index.distances_.resize(index.offsets_[num_terms]);
  for (uint32_t entry = 0; entry < wns.size(); ++entry) {
    for (uint64_t i = wns[entry].begin; i < wns[entry].end; ++i) {
      const uint64_t pos = cursor[arena_terms[i]]++;
      index.entries_[pos] = entry;
      index.distances_[pos] = arena_distances[i];
    }
  }
  return index;
}

namespace {
constexpr uint32_t kAlphaMagic = 0x4B535041u;  // "KSPA"
/// v3: meta, then the offsets, entries and distances arrays, one
/// pod-vector section each (5 bytes per posting, no padding).
constexpr uint32_t kAlphaFormatVersion = 3;
}  // namespace

Status AlphaIndex::Save(const std::string& path, FileSystem* fs,
                        ArtifactInfo* info) const {
  if (fs == nullptr) fs = DefaultFileSystem();
  return WriteArtifactAtomically(
      fs, path, kAlphaMagic, kAlphaFormatVersion,
      [this](ChecksummedWriter* w) -> Status {
        std::string meta;
        AppendPod(&meta, alpha_);
        AppendPod(&meta, num_places_);
        AppendPod(&meta, num_nodes_);
        KSP_RETURN_NOT_OK(w->WriteSection(meta));
        KSP_RETURN_NOT_OK(w->WritePodVectorSection(offsets_));
        KSP_RETURN_NOT_OK(w->WritePodVectorSection(entries_));
        return w->WritePodVectorSection(distances_);
      },
      info);
}

Result<AlphaIndex> AlphaIndex::Load(const std::string& path,
                                    FileSystem* fs) {
  if (fs == nullptr) fs = DefaultFileSystem();
  auto file = fs->NewRandomAccessFile(path);
  if (!file.ok()) return file.status();
  ChecksummedReader reader(file->get());
  uint32_t version = 0;
  KSP_RETURN_NOT_OK(reader.Open(kAlphaMagic, &version));
  if (version != kAlphaFormatVersion) {
    return CorruptionAt(path, 4, "unsupported alpha-index format version " +
                                     std::to_string(version) +
                                     "; rebuild the index");
  }
  AlphaIndex index;
  std::string meta;
  const uint64_t meta_offset = reader.offset();
  KSP_RETURN_NOT_OK(reader.ReadSection(&meta));
  size_t pos = 0;
  Status st = ParsePod(meta, &pos, &index.alpha_);
  if (st.ok()) st = ParsePod(meta, &pos, &index.num_places_);
  if (st.ok()) st = ParsePod(meta, &pos, &index.num_nodes_);
  if (!st.ok() || pos != meta.size()) {
    return CorruptionAt(path, meta_offset, "malformed meta section");
  }
  const uint64_t offsets_at = reader.offset();
  KSP_RETURN_NOT_OK(reader.ReadPodVectorSection(&index.offsets_));
  const uint64_t entries_at = reader.offset();
  KSP_RETURN_NOT_OK(reader.ReadPodVectorSection(&index.entries_));
  const uint64_t distances_at = reader.offset();
  KSP_RETURN_NOT_OK(reader.ReadPodVectorSection(&index.distances_));
  KSP_RETURN_NOT_OK(reader.ExpectEnd());

  // The lookups index the arrays through the offsets unchecked, and
  // binary-search each term's entries: check the whole CSR here, once.
  const std::vector<uint64_t>& offsets = index.offsets_;
  const std::vector<uint32_t>& entries = index.entries_;
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != entries.size()) {
    return CorruptionAt(path, offsets_at,
                        "term offsets do not run from 0 to the posting "
                        "count");
  }
  for (size_t t = 1; t < offsets.size(); ++t) {
    if (offsets[t] < offsets[t - 1]) {
      return CorruptionAt(path, offsets_at,
                          "term offsets decrease at term " +
                              std::to_string(t - 1));
    }
  }
  if (index.distances_.size() != entries.size()) {
    return CorruptionAt(path, distances_at,
                        "distance and entry arrays differ in length");
  }
  const uint64_t num_entries =
      uint64_t{index.num_places_} + index.num_nodes_;
  for (size_t t = 0; t + 1 < offsets.size(); ++t) {
    for (uint64_t i = offsets[t]; i < offsets[t + 1]; ++i) {
      if (entries[i] >= num_entries ||
          (i > offsets[t] && entries[i] <= entries[i - 1])) {
        return CorruptionAt(path, entries_at,
                            "entries of term " + std::to_string(t) +
                                " are not strictly ascending entry ids");
      }
    }
  }
  for (uint8_t distance : index.distances_) {
    if (distance > index.alpha_) {
      return CorruptionAt(path, distances_at,
                          "posting distance exceeds alpha");
    }
  }
  return index;
}

AlphaIndex::PostingList AlphaIndex::TermPostings(TermId term) const {
  if (term >= num_terms()) return PostingList(nullptr, nullptr, 0);
  const uint64_t begin = offsets_[term];
  return PostingList(entries_.data() + begin, distances_.data() + begin,
                     offsets_[term + 1] - begin);
}

std::optional<uint32_t> AlphaIndex::EntryTermDistance(uint32_t entry,
                                                      TermId term) const {
  if (term >= num_terms()) return std::nullopt;
  const uint32_t* first = entries_.data() + offsets_[term];
  const uint32_t* last = entries_.data() + offsets_[term + 1];
  const uint32_t* it = std::lower_bound(first, last, entry);
  if (it == last || *it != entry) return std::nullopt;
  return distances_[it - entries_.data()];
}

}  // namespace ksp
