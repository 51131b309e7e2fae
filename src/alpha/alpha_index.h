#ifndef KSP_ALPHA_ALPHA_INDEX_H_
#define KSP_ALPHA_ALPHA_INDEX_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "rdf/knowledge_base.h"
#include "spatial/rtree.h"

namespace ksp {

class FileSystem;
struct ArtifactInfo;

/// §5 preprocessing: the α-radius word neighborhood WN(p) of every place
/// the R-tree indexes (terms whose nearest occurrence is within graph
/// distance α of p, with that distance) and WN(N) of every R-tree node
/// (term-wise minimum over the enclosed places). Both are stored in one
/// inverted file keyed by term, so a kSP query loads only its keywords'
/// lists (Pruning Rules 3 and 4 and the α-bound priority order of
/// Algorithm 4).
class AlphaIndex {
 public:
  /// One inverted-file posting: `entry` is a unified id — places occupy
  /// [0, num_places), R-tree nodes occupy [num_places, num_places +
  /// num_nodes) — and `distance` is dg(entry, term) ≤ α.
  struct Posting {
    uint32_t entry;
    uint8_t distance;
  };

  /// Builds WNs by bounded BFS over out-edges (the TQSP search
  /// direction) from each place that is a leaf payload of `rtree`, found
  /// by a linear scan over the leaf nodes; every other place keeps an
  /// empty WN, so a shard's index covers only its tile. Node WNs are then
  /// merged bottom-up as term-wise minima through a dense per-term
  /// scratch, so no WN is ever sorted. Leaf payloads must be PlaceIds of
  /// `kb`.
  static AlphaIndex Build(const KnowledgeBase& kb, const RTree& rtree,
                          uint32_t alpha, bool undirected_edges = false);

  uint32_t alpha() const { return alpha_; }
  uint32_t num_places() const { return num_places_; }
  uint32_t num_nodes() const { return num_nodes_; }

  /// Unified entry ids.
  uint32_t PlaceEntry(PlaceId p) const { return p; }
  uint32_t NodeEntry(uint32_t node_id) const { return num_places_ + node_id; }

  /// The inverted list of `term` (sorted by entry id). Terms ≥ the KB's
  /// vocabulary (or never within α of any place) yield an empty span.
  std::span<const Posting> TermPostings(TermId term) const;

  /// dg(entry, term) if term is inside the entry's α-radius WN.
  std::optional<uint32_t> EntryTermDistance(uint32_t entry,
                                            TermId term) const;

  /// Persists / restores the inverted WN file (the paper keeps it on
  /// disk; building it is by far the costliest preprocessing step).
  /// Save writes the checksummed v2 container atomically; Load verifies
  /// every section CRC.
  Status Save(const std::string& path, FileSystem* fs = nullptr,
              ArtifactInfo* info = nullptr) const;
  static Result<AlphaIndex> Load(const std::string& path,
                                 FileSystem* fs = nullptr);

  /// Total number of (term, entry) pairs across the file.
  uint64_t TotalEntries() const { return postings_.size(); }

  /// Bytes of the α-radius WN data (the Table 6 metric).
  uint64_t SizeBytes() const {
    return postings_.capacity() * sizeof(Posting) +
           offsets_.capacity() * sizeof(uint64_t);
  }

 private:
  AlphaIndex() = default;

  uint32_t alpha_ = 0;
  uint32_t num_places_ = 0;
  uint32_t num_nodes_ = 0;
  /// CSR: per-term slice of postings_.
  std::vector<uint64_t> offsets_;
  std::vector<Posting> postings_;
};

}  // namespace ksp

#endif  // KSP_ALPHA_ALPHA_INDEX_H_
