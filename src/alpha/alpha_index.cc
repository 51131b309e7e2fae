#include "alpha/alpha_index.h"

#include <algorithm>

#include "common/io_util.h"
#include "common/logging.h"

namespace ksp {

namespace {

/// (term, distance) pair of one entry's word neighborhood, in the order
/// its term was first reached (place) or first merged (node).
struct WordDist {
  TermId term;
  uint8_t distance;
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

  // --- Place WNs: bounded BFS from each leaf payload of `rtree`, kept
  // in discovery order. Places outside the tree (another shard's tile)
  // keep empty WNs, so the work follows the tree, not the KB. ---
  std::vector<std::vector<WordDist>> wns(index.num_places_ +
                                         index.num_nodes_);
  std::vector<VertexId> frontier;
  std::vector<VertexId> next_frontier;
  rtree.ForEachLeafEntry([&](const RTree::Entry& e) {
    KSP_CHECK(e.id < index.num_places_)
        << "R-tree payload " << e.id << " is not a place of the KB";
    const PlaceId p = static_cast<PlaceId>(e.id);
    const VertexId root = kb.place_vertex(p);
    std::vector<WordDist>& wn = wns[p];
    wn.clear();  // A repeated payload rebuilds the same WN.
    ++epoch;
    frontier.clear();
    frontier.push_back(root);
    visit_epoch[root] = epoch;
    for (uint32_t depth = 0; depth <= alpha && !frontier.empty(); ++depth) {
      for (VertexId v : frontier) {
        for (TermId t : docs.Terms(v)) {
          if (term_epoch[t] != epoch) {
            term_epoch[t] = epoch;
            wn.push_back(WordDist{t, static_cast<uint8_t>(depth)});
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
  });

  // --- Node WNs bottom-up (children before parents via post-order):
  // the term-wise minimum over the children, merged through dense
  // per-term scratch — term_epoch marks the terms already in `merged`
  // and term_slot holds their position there. ---
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
    std::vector<uint32_t> term_slot(num_terms);
    std::vector<WordDist> merged;
    for (uint32_t node_id : postorder) {
      const RTree::Node& node = rtree.node(node_id);
      ++epoch;
      merged.clear();
      for (const RTree::Entry& e : node.entries) {
        const uint32_t child = node.is_leaf
                                   ? static_cast<PlaceId>(e.id)
                                   : index.num_places_ +
                                         static_cast<uint32_t>(e.id);
        for (const WordDist& wd : wns[child]) {
          if (term_epoch[wd.term] != epoch) {
            term_epoch[wd.term] = epoch;
            term_slot[wd.term] = static_cast<uint32_t>(merged.size());
            merged.push_back(wd);
          } else {
            uint8_t& distance = merged[term_slot[wd.term]].distance;
            distance = std::min(distance, wd.distance);
          }
        }
      }
      // Copied out at exact size; `merged` keeps its capacity.
      wns[index.num_places_ + node_id].assign(merged.begin(), merged.end());
    }
  }

  // --- Invert: term -> (entry, dist). A counting sort over entries in
  // ascending order, so each term's list comes out sorted by entry
  // whatever order the WNs hold their terms in. ---
  std::vector<uint64_t> counts(num_terms, 0);
  for (const auto& wn : wns) {
    for (const WordDist& wd : wn) ++counts[wd.term];
  }
  index.offsets_.assign(num_terms + 1, 0);
  for (TermId t = 0; t < num_terms; ++t) {
    index.offsets_[t + 1] = index.offsets_[t] + counts[t];
  }
  index.postings_.resize(index.offsets_[num_terms]);
  std::vector<uint64_t> cursor(index.offsets_.begin(),
                               index.offsets_.end() - 1);
  for (uint32_t entry = 0; entry < wns.size(); ++entry) {
    for (const WordDist& wd : wns[entry]) {
      index.postings_[cursor[wd.term]++] = Posting{entry, wd.distance};
    }
  }
  return index;
}

namespace {
constexpr uint32_t kAlphaMagic = 0x4B535041u;  // "KSPA"
}  // namespace

namespace {
constexpr uint32_t kAlphaFormatVersion = 2;
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
        std::string buf;
        AppendPodVector(&buf, offsets_);
        KSP_RETURN_NOT_OK(w->WriteSection(buf));
        buf.clear();
        AppendPodVector(&buf, postings_);
        return w->WriteSection(buf);
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
                                     std::to_string(version));
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
  auto read_vec = [&](auto* vec) -> Status {
    std::string section;
    const uint64_t section_offset = reader.offset();
    KSP_RETURN_NOT_OK(reader.ReadSection(&section));
    size_t vpos = 0;
    Status vst = ParsePodVector(section, &vpos, vec);
    if (!vst.ok() || vpos != section.size()) {
      return CorruptionAt(path, section_offset, "malformed vector section");
    }
    return Status::OK();
  };
  KSP_RETURN_NOT_OK(read_vec(&index.offsets_));
  KSP_RETURN_NOT_OK(read_vec(&index.postings_));
  KSP_RETURN_NOT_OK(reader.ExpectEnd());
  // CSR sanity: every offset must stay inside the postings array.
  for (uint64_t off : index.offsets_) {
    if (off > index.postings_.size()) {
      return CorruptionAt(path, meta_offset, "CSR offset out of range");
    }
  }
  return index;
}

std::span<const AlphaIndex::Posting> AlphaIndex::TermPostings(
    TermId term) const {
  if (term + 1 >= offsets_.size()) return {};
  return {postings_.data() + offsets_[term],
          postings_.data() + offsets_[term + 1]};
}

std::optional<uint32_t> AlphaIndex::EntryTermDistance(uint32_t entry,
                                                      TermId term) const {
  auto postings = TermPostings(term);
  auto it = std::lower_bound(postings.begin(), postings.end(), entry,
                             [](const Posting& p, uint32_t e) {
                               return p.entry < e;
                             });
  if (it == postings.end() || it->entry != entry) return std::nullopt;
  return it->distance;
}

}  // namespace ksp
