#ifndef KSP_SPATIAL_RTREE_H_
#define KSP_SPATIAL_RTREE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/io_stats.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "spatial/geometry.h"

namespace ksp {

class FileSystem;
struct ArtifactInfo;

/// Node-splitting strategy for one-by-one insertion (Guttman §3.5).
enum class RTreeSplitStrategy {
  /// Quadratic cost: PickSeeds maximizes wasted area (better trees).
  kQuadratic,
  /// Linear cost: seeds with the greatest normalized separation
  /// (faster builds, slightly worse trees).
  kLinear,
};

struct RTreeOptions {
  /// Maximum entries per node (fan-out). 64 entries ≈ a 4 KB page of
  /// (rect, child) pairs, matching a disk-page-sized node.
  uint32_t max_entries = 64;
  /// Minimum fill after a split. Guttman recommends ~40%.
  uint32_t min_entries = 26;
  RTreeSplitStrategy split = RTreeSplitStrategy::kQuadratic;
};

/// Guttman R-tree [29] over 2-D points, with quadratic- or linear-cost
/// node splitting for one-by-one insertion (the construction the paper
/// uses) and an STR packing bulk loader [45] as the fast alternative
/// Table 5 mentions.
///
/// Node ids are stable once construction is finished; the α-radius
/// machinery of §5 attaches a word neighborhood to every node id. Data
/// payloads are opaque 64-bit values (the kSP engine stores PlaceIds).
class RTree {
 public:
  using Options = RTreeOptions;

  /// One child of an internal node or one data point of a leaf.
  struct Entry {
    Rect rect;
    /// Child node id for internal nodes; opaque payload for leaves.
    uint64_t id = 0;
  };

  struct Node {
    bool is_leaf = true;
    uint32_t parent = kNoNode;
    std::vector<Entry> entries;

    /// MBR of all entries; empty for an empty node.
    Rect BoundingRect() const {
      Rect r = Rect::Empty();
      for (const auto& e : entries) r.ExpandToInclude(e.rect);
      return r;
    }
  };

  static constexpr uint32_t kNoNode = 0xFFFFFFFFu;

  RTree() : RTree(Options()) {}
  explicit RTree(Options options);

  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;
  RTree(RTree&&) = default;
  RTree& operator=(RTree&&) = default;

  /// Inserts one point (Guttman ChooseLeaf + quadratic split).
  void Insert(const Point& p, uint64_t data);

  /// Builds a packed tree with Sort-Tile-Recursive loading.
  static RTree BulkLoadStr(std::vector<std::pair<Point, uint64_t>> points,
                           Options options = Options());

  size_t size() const { return size_; }
  uint32_t root() const { return root_; }
  bool empty() const { return size_ == 0; }
  const Node& node(uint32_t id) const { return nodes_[id]; }
  size_t num_nodes() const { return nodes_.size(); }

  /// Tree height (1 for a single leaf root; 0 for an empty tree).
  uint32_t Height() const;

  uint64_t MemoryUsageBytes() const;

  /// Collects all (point-rect, data) leaf entries under node `id` —
  /// used by tests and by the α-WN bottom-up construction.
  void CollectLeafEntries(uint32_t id, std::vector<Entry>* out) const;

  /// Range query: appends the payloads of all points inside `range`
  /// (boundary inclusive). Returns the number of nodes visited.
  uint64_t RangeQuery(const Rect& range, std::vector<uint64_t>* out) const;

  /// k nearest neighbours of `query` in ascending distance order.
  std::vector<std::pair<double, uint64_t>> KnnQuery(const Point& query,
                                                    size_t k) const;

  /// Persists / restores the exact tree structure (node ids included, so
  /// an α-radius index built against this tree stays valid). Save writes
  /// the checksummed v2 container via temp-file + fsync + atomic rename;
  /// Load verifies every section CRC (and still reads v1 legacy files for
  /// one release). `fs` defaults to DefaultFileSystem().
  Status Save(const std::string& path, FileSystem* fs = nullptr,
              ArtifactInfo* info = nullptr) const;
  static Result<RTree> Load(const std::string& path,
                            FileSystem* fs = nullptr);

  /// Writes the CRC-free v1 format — kept only so tests can exercise the
  /// legacy-read window; removed once that window closes.
  Status SaveLegacyForTesting(const std::string& path) const;

 private:
  static Result<RTree> LoadLegacy(const std::string& path);
  uint32_t NewNode(bool is_leaf);
  uint32_t ChooseLeaf(const Rect& rect) const;
  /// PickSeeds for the configured strategy: indexes of the two entries
  /// that seed the split groups.
  std::pair<size_t, size_t> PickSeeds(
      const std::vector<Entry>& entries) const;
  /// Splits `node_id` (which has overflowed) in place; returns the id of
  /// the new sibling node.
  uint32_t SplitNode(uint32_t node_id);
  void AdjustTree(uint32_t node_id, uint32_t split_id);
  Rect NodeRect(uint32_t id) const { return nodes_[id].BoundingRect(); }

  Options options_;
  std::vector<Node> nodes_;
  uint32_t root_ = kNoNode;
  size_t size_ = 0;
};

/// View of one R-tree node obtained through a SpatialAccessor. The
/// entries span stays valid until the next ReadNode() on the same
/// cursor (memory accessor: for the tree's lifetime).
struct SpatialNodeRef {
  bool is_leaf = true;
  std::span<const RTree::Entry> entries;
};

/// Per-traversal scratch for SpatialAccessor reads: the disk accessor
/// copies node entries into it (a node slot spanning pages is first
/// assembled in `buf`) and accumulates page-I/O counters; the memory
/// accessor leaves it untouched. One cursor per thread.
class SpatialCursor {
 public:
  std::vector<RTree::Entry> entries;
  std::string buf;
  PageIoCounters io;
};

/// Narrow read seam the query algorithms traverse the R-tree through:
/// an id-addressed node store with the same node ids as the in-memory
/// RTree, so MINDIST traversal order — and therefore every prune
/// decision and counter upstream — is backend-invariant by
/// construction. Implementations: MemorySpatialAccessor (below) and the
/// node-as-page PagedRTree (spatial/paged_rtree.h).
class SpatialAccessor {
 public:
  virtual ~SpatialAccessor() = default;

  virtual bool empty() const = 0;
  virtual uint32_t root() const = 0;
  virtual size_t num_nodes() const = 0;
  /// Loads node `id` into `*out` (via `cursor` for disk backends).
  virtual Status ReadNode(uint32_t id, SpatialCursor* cursor,
                          SpatialNodeRef* out) const = 0;

  /// MBR of node `id` (its entries' bounding rect), used to seed
  /// best-first traversals.
  Status NodeRect(uint32_t id, SpatialCursor* cursor, Rect* out) const {
    SpatialNodeRef node;
    KSP_RETURN_NOT_OK(ReadNode(id, cursor, &node));
    *out = Rect::Empty();
    for (const RTree::Entry& e : node.entries) out->ExpandToInclude(e.rect);
    return Status::OK();
  }
};

/// Zero-copy accessor over an in-memory RTree.
class MemorySpatialAccessor : public SpatialAccessor {
 public:
  explicit MemorySpatialAccessor(const RTree* tree) : tree_(tree) {}

  bool empty() const override { return tree_->empty(); }
  uint32_t root() const override { return tree_->root(); }
  size_t num_nodes() const override { return tree_->num_nodes(); }
  Status ReadNode(uint32_t id, SpatialCursor* cursor,
                  SpatialNodeRef* out) const override {
    (void)cursor;
    if (id >= tree_->num_nodes()) {
      return Status::InvalidArgument("rtree node id out of range");
    }
    const RTree::Node& node = tree_->node(id);
    out->is_leaf = node.is_leaf;
    out->entries = node.entries;
    return Status::OK();
  }

 private:
  const RTree* tree_;
};

/// Best-first incremental nearest-neighbour iterator (Hjaltason & Samet
/// [33]): pops R-tree entries in non-decreasing MINDIST order. Both node
/// and data entries are reported, because BSP's termination test (line 7
/// of Algorithm 1) applies to either kind; callers expand node entries by
/// default but may stop early.
class NearestIterator {
 public:
  struct Item {
    double distance = 0.0;
    bool is_node = false;
    /// Node id when is_node, else the opaque data payload.
    uint64_t id = 0;
    Rect rect;
  };

  NearestIterator(const RTree* tree, const Point& query);
  /// Traverses through `accessor` (any backend); the accessor must
  /// outlive the iterator.
  NearestIterator(const SpatialAccessor* accessor, const Point& query);

  /// Pops the next entry in distance order; node entries are expanded
  /// automatically (children pushed) before being returned. Returns false
  /// when the tree is exhausted — or on a node-read error, which parks
  /// the sticky status() (callers must check it after the stream ends).
  bool Next(Item* out);

  /// Like Next() but skips node items, returning only data entries — the
  /// classic incremental kNN stream (used by the TA baseline).
  bool NextData(Item* out);

  /// Number of R-tree nodes popped so far (the paper's "R-tree nodes
  /// accessed" metric).
  uint64_t nodes_accessed() const { return nodes_accessed_; }

  /// OK unless a node read failed, after which the stream is over.
  const Status& status() const { return status_; }

  /// Page-I/O accumulated by this traversal (zero for memory backends).
  const PageIoCounters& io() const { return cursor_.io; }

 private:
  struct HeapItem {
    double distance;
    bool is_node;
    uint64_t id;
    Rect rect;
    bool operator>(const HeapItem& o) const { return distance > o.distance; }
  };

  /// Owns the implicit accessor of the (tree, query) constructor;
  /// heap-allocated so moving the iterator keeps accessor_ valid.
  std::unique_ptr<MemorySpatialAccessor> owned_accessor_;
  const SpatialAccessor* accessor_;
  Point query_;
  SpatialCursor cursor_;
  Status status_;
  std::vector<HeapItem> heap_;  // min-heap via std::push_heap with greater
  uint64_t nodes_accessed_ = 0;

  void Push(const HeapItem& item);
  bool Pop(HeapItem* out);
};

/// Thread-safe batched front-end over NearestIterator: NextBatch() hands
/// out contiguous runs of the incremental-NN stream under a mutex, so a
/// pipeline producer can drain the stream in amortized-lock batches (and
/// several consumers may share one stream — each batch is a contiguous,
/// globally ordered run; interleaving across consumers partitions the
/// stream without reordering it). Every item carries its global stream
/// sequence number and the iterator's nodes-accessed count *after* the
/// item was popped, which is exactly the paper's "R-tree nodes accessed"
/// value had a sequential scan stopped on that item — the intra-query
/// ordered-commit stage replays termination from these snapshots.
class BatchedNearestIterator {
 public:
  struct BatchItem {
    NearestIterator::Item item;
    /// 0-based position in the global NN stream.
    uint64_t seq = 0;
    /// NearestIterator::nodes_accessed() right after this item popped.
    uint64_t nodes_accessed = 0;
  };

  BatchedNearestIterator(const RTree* tree, const Point& query)
      : iterator_(tree, query) {}
  BatchedNearestIterator(const SpatialAccessor* accessor, const Point& query)
      : iterator_(accessor, query) {}

  /// Appends up to `max_items` next stream items to `*out` (which is not
  /// cleared). Returns the number appended; 0 means the stream is
  /// exhausted (check status()).
  size_t NextBatch(size_t max_items, std::vector<BatchItem>* out);

  uint64_t nodes_accessed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return iterator_.nodes_accessed();
  }

  Status status() const {
    std::lock_guard<std::mutex> lock(mu_);
    return iterator_.status();
  }

  PageIoCounters io() const {
    std::lock_guard<std::mutex> lock(mu_);
    return iterator_.io();
  }

 private:
  mutable std::mutex mu_;
  NearestIterator iterator_;
  uint64_t next_seq_ = 0;
};

}  // namespace ksp

#endif  // KSP_SPATIAL_RTREE_H_
