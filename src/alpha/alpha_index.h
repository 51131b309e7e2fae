#ifndef KSP_ALPHA_ALPHA_INDEX_H_
#define KSP_ALPHA_ALPHA_INDEX_H_

#include <cstdint>
#include <optional>
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

  /// One term's postings, read in place from the parallel entry and
  /// distance arrays; its elements read as Posting values. Valid while
  /// the index lives.
  class PostingList {
   public:
    class Iterator {
     public:
      Posting operator*() const { return {*entry_, *distance_}; }
      Iterator& operator++() {
        ++entry_;
        ++distance_;
        return *this;
      }
      bool operator==(const Iterator& other) const {
        return entry_ == other.entry_;
      }

     private:
      friend class PostingList;
      Iterator(const uint32_t* entry, const uint8_t* distance)
          : entry_(entry), distance_(distance) {}
      const uint32_t* entry_;
      const uint8_t* distance_;
    };

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    Posting operator[](size_t i) const { return {entries_[i], distances_[i]}; }
    Iterator begin() const { return {entries_, distances_}; }
    Iterator end() const { return {entries_ + size_, distances_ + size_}; }

   private:
    friend class AlphaIndex;
    PostingList(const uint32_t* entries, const uint8_t* distances,
                size_t size)
        : entries_(entries), distances_(distances), size_(size) {}
    const uint32_t* entries_ = nullptr;
    const uint8_t* distances_ = nullptr;
    size_t size_ = 0;
  };

  /// Builds WNs by bounded BFS over out-edges (the TQSP search
  /// direction) from each place that is a leaf payload of `rtree`, found
  /// by a linear scan over the leaf nodes; every other place keeps an
  /// empty WN, so a shard's index covers only its tile. All WNs go to one
  /// entry-major arena: place WNs in discovery order, then node WNs,
  /// merged bottom-up as term-wise minima through a dense per-term slot
  /// into the arena, so no WN is ever sorted. Leaf payloads must be
  /// PlaceIds of `kb`.
  static AlphaIndex Build(const KnowledgeBase& kb, const RTree& rtree,
                          uint32_t alpha, bool undirected_edges = false);

  uint32_t alpha() const { return alpha_; }
  uint32_t num_places() const { return num_places_; }
  uint32_t num_nodes() const { return num_nodes_; }
  /// Terms the inverted file has a (possibly empty) list for: the KB's
  /// vocabulary size at build time.
  uint64_t num_terms() const { return offsets_.size() - 1; }

  /// Unified entry ids.
  uint32_t PlaceEntry(PlaceId p) const { return p; }
  uint32_t NodeEntry(uint32_t node_id) const { return num_places_ + node_id; }

  /// The inverted list of `term` (sorted by entry id). Terms ≥ the KB's
  /// vocabulary (or never within α of any place) yield an empty list.
  PostingList TermPostings(TermId term) const;

  /// dg(entry, term) if term is inside the entry's α-radius WN.
  std::optional<uint32_t> EntryTermDistance(uint32_t entry,
                                            TermId term) const;

  /// Persists / restores the inverted WN file (the paper keeps it on
  /// disk; building it is by far the costliest preprocessing step).
  /// Save writes the checksummed v3 container atomically — meta, then
  /// the offsets, entries and distances arrays, each one section written
  /// from its own memory. Load reads each section straight into its
  /// array, verifies every CRC, and checks the CSR (offsets from 0,
  /// non-decreasing, ending at the posting count; per-term entries
  /// strictly ascending and in range; distances ≤ α) before returning.
  Status Save(const std::string& path, FileSystem* fs = nullptr,
              ArtifactInfo* info = nullptr) const;
  static Result<AlphaIndex> Load(const std::string& path,
                                 FileSystem* fs = nullptr);

  /// Total number of (term, entry) pairs across the file.
  uint64_t TotalEntries() const { return entries_.size(); }

  /// Bytes of the α-radius WN data (the Table 6 metric): 8 per term
  /// offset plus 5 per posting.
  uint64_t SizeBytes() const {
    return offsets_.capacity() * sizeof(uint64_t) +
           entries_.capacity() * sizeof(uint32_t) +
           distances_.capacity() * sizeof(uint8_t);
  }

 private:
  AlphaIndex() = default;

  uint32_t alpha_ = 0;
  uint32_t num_places_ = 0;
  uint32_t num_nodes_ = 0;
  /// CSR: term t's postings are [offsets_[t], offsets_[t + 1]) of the
  /// parallel entries_ / distances_ arrays.
  std::vector<uint64_t> offsets_{0};
  std::vector<uint32_t> entries_;
  std::vector<uint8_t> distances_;
};

}  // namespace ksp

#endif  // KSP_ALPHA_ALPHA_INDEX_H_
