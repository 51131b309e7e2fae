#include "spatial/rtree.h"

#include <algorithm>
#include <cmath>

#include "common/io_util.h"
#include "common/logging.h"

namespace ksp {

RTree::RTree(Options options) : options_(options) {
  KSP_CHECK(options_.max_entries >= 4) << "fan-out too small";
  KSP_CHECK(options_.min_entries >= 1 &&
            options_.min_entries <= options_.max_entries / 2)
      << "min_entries must be in [1, max_entries/2]";
}

uint32_t RTree::NewNode(bool is_leaf) {
  nodes_.push_back(Node{});
  nodes_.back().is_leaf = is_leaf;
  return static_cast<uint32_t>(nodes_.size() - 1);
}

uint32_t RTree::ChooseLeaf(const Rect& rect) const {
  uint32_t current = root_;
  while (!nodes_[current].is_leaf) {
    const Node& node = nodes_[current];
    double best_enlargement = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    uint32_t best_child = kNoNode;
    for (const Entry& e : node.entries) {
      double area = e.rect.Area();
      double enlargement = e.rect.EnlargedArea(rect) - area;
      if (enlargement < best_enlargement ||
          (enlargement == best_enlargement && area < best_area)) {
        best_enlargement = enlargement;
        best_area = area;
        best_child = static_cast<uint32_t>(e.id);
      }
    }
    current = best_child;
  }
  return current;
}

std::pair<size_t, size_t> RTree::PickSeeds(
    const std::vector<Entry>& entries) const {
  if (options_.split == RTreeSplitStrategy::kQuadratic) {
    // Quadratic PickSeeds: the pair wasting the most area together.
    size_t seed_a = 0;
    size_t seed_b = 1;
    double worst_waste = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < entries.size(); ++i) {
      for (size_t j = i + 1; j < entries.size(); ++j) {
        double waste = entries[i].rect.EnlargedArea(entries[j].rect) -
                       entries[i].rect.Area() - entries[j].rect.Area();
        if (waste > worst_waste) {
          worst_waste = waste;
          seed_a = i;
          seed_b = j;
        }
      }
    }
    return {seed_a, seed_b};
  }

  // Linear PickSeeds: per dimension, the entries with the highest low
  // side and the lowest high side; pick the dimension with the greatest
  // separation normalized by the total extent.
  double best_separation = -1.0;
  size_t seed_a = 0;
  size_t seed_b = 1;
  for (int dim = 0; dim < 2; ++dim) {
    auto lo = [&](const Entry& e) {
      return dim == 0 ? e.rect.min_x : e.rect.min_y;
    };
    auto hi = [&](const Entry& e) {
      return dim == 0 ? e.rect.max_x : e.rect.max_y;
    };
    size_t highest_low = 0;
    size_t lowest_high = 0;
    double min_lo = lo(entries[0]);
    double max_hi = hi(entries[0]);
    for (size_t i = 0; i < entries.size(); ++i) {
      if (lo(entries[i]) > lo(entries[highest_low])) highest_low = i;
      if (hi(entries[i]) < hi(entries[lowest_high])) lowest_high = i;
      min_lo = std::min(min_lo, lo(entries[i]));
      max_hi = std::max(max_hi, hi(entries[i]));
    }
    double extent = max_hi - min_lo;
    double separation =
        lo(entries[highest_low]) - hi(entries[lowest_high]);
    double normalized = extent > 0 ? separation / extent : 0.0;
    if (normalized > best_separation && highest_low != lowest_high) {
      best_separation = normalized;
      seed_a = highest_low;
      seed_b = lowest_high;
    }
  }
  if (seed_a == seed_b) seed_b = (seed_a + 1) % entries.size();
  return {seed_a, seed_b};
}

uint32_t RTree::SplitNode(uint32_t node_id) {
  Node& node = nodes_[node_id];
  std::vector<Entry> entries = std::move(node.entries);
  node.entries.clear();
  const uint32_t sibling_id = NewNode(nodes_[node_id].is_leaf);
  // NewNode may reallocate nodes_; re-take the reference.
  Node& left = nodes_[node_id];
  Node& right = nodes_[sibling_id];
  right.parent = left.parent;

  auto [seed_a, seed_b] = PickSeeds(entries);

  Rect rect_left = entries[seed_a].rect;
  Rect rect_right = entries[seed_b].rect;
  left.entries.push_back(entries[seed_a]);
  right.entries.push_back(entries[seed_b]);
  std::vector<bool> assigned(entries.size(), false);
  assigned[seed_a] = assigned[seed_b] = true;
  size_t remaining = entries.size() - 2;

  while (remaining > 0) {
    // Force-assign if a group needs every remaining entry to reach the
    // minimum fill.
    if (left.entries.size() + remaining == options_.min_entries) {
      for (size_t i = 0; i < entries.size(); ++i) {
        if (!assigned[i]) {
          left.entries.push_back(entries[i]);
          rect_left.ExpandToInclude(entries[i].rect);
          assigned[i] = true;
        }
      }
      remaining = 0;
      break;
    }
    if (right.entries.size() + remaining == options_.min_entries) {
      for (size_t i = 0; i < entries.size(); ++i) {
        if (!assigned[i]) {
          right.entries.push_back(entries[i]);
          rect_right.ExpandToInclude(entries[i].rect);
          assigned[i] = true;
        }
      }
      remaining = 0;
      break;
    }

    // PickNext: the entry with the strongest preference for one group.
    size_t best_index = 0;
    double best_diff = -1.0;
    double d_left_best = 0.0;
    double d_right_best = 0.0;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (assigned[i]) continue;
      double d_left = rect_left.EnlargedArea(entries[i].rect) -
                      rect_left.Area();
      double d_right = rect_right.EnlargedArea(entries[i].rect) -
                       rect_right.Area();
      double diff = std::abs(d_left - d_right);
      if (diff > best_diff) {
        best_diff = diff;
        best_index = i;
        d_left_best = d_left;
        d_right_best = d_right;
      }
    }
    bool to_left;
    if (d_left_best != d_right_best) {
      to_left = d_left_best < d_right_best;
    } else if (rect_left.Area() != rect_right.Area()) {
      to_left = rect_left.Area() < rect_right.Area();
    } else {
      to_left = left.entries.size() <= right.entries.size();
    }
    if (to_left) {
      left.entries.push_back(entries[best_index]);
      rect_left.ExpandToInclude(entries[best_index].rect);
    } else {
      right.entries.push_back(entries[best_index]);
      rect_right.ExpandToInclude(entries[best_index].rect);
    }
    assigned[best_index] = true;
    --remaining;
  }

  // Fix parent pointers of moved children.
  if (!right.is_leaf) {
    for (const Entry& e : right.entries) {
      nodes_[static_cast<uint32_t>(e.id)].parent = sibling_id;
    }
  }
  return sibling_id;
}

void RTree::AdjustTree(uint32_t node_id, uint32_t split_id) {
  while (node_id != root_) {
    uint32_t parent_id = nodes_[node_id].parent;
    Node& parent = nodes_[parent_id];
    // Refresh the MBR of the entry that points to node_id.
    for (Entry& e : parent.entries) {
      if (static_cast<uint32_t>(e.id) == node_id) {
        e.rect = NodeRect(node_id);
        break;
      }
    }
    if (split_id != kNoNode) {
      parent.entries.push_back(Entry{NodeRect(split_id), split_id});
      nodes_[split_id].parent = parent_id;
      if (parent.entries.size() > options_.max_entries) {
        split_id = SplitNode(parent_id);
      } else {
        split_id = kNoNode;
      }
    }
    node_id = parent_id;
  }
  if (split_id != kNoNode) {
    // Root was split: grow the tree by one level.
    uint32_t new_root = NewNode(/*is_leaf=*/false);
    nodes_[new_root].entries.push_back(Entry{NodeRect(node_id), node_id});
    nodes_[new_root].entries.push_back(Entry{NodeRect(split_id), split_id});
    nodes_[node_id].parent = new_root;
    nodes_[split_id].parent = new_root;
    root_ = new_root;
  }
}

void RTree::Insert(const Point& p, uint64_t data) {
  if (root_ == kNoNode) {
    root_ = NewNode(/*is_leaf=*/true);
  }
  uint32_t leaf = ChooseLeaf(Rect::FromPoint(p));
  nodes_[leaf].entries.push_back(Entry{Rect::FromPoint(p), data});
  ++size_;
  uint32_t split = kNoNode;
  if (nodes_[leaf].entries.size() > options_.max_entries) {
    split = SplitNode(leaf);
  }
  AdjustTree(leaf, split);
}

RTree RTree::BulkLoadStr(std::vector<std::pair<Point, uint64_t>> points,
                         Options options) {
  RTree tree(options);
  if (points.empty()) return tree;

  const size_t cap = options.max_entries;
  // Pack leaves: sort by x, tile into vertical slabs, sort slabs by y.
  std::sort(points.begin(), points.end(),
            [](const auto& a, const auto& b) { return a.first.x < b.first.x; });
  const size_t num_leaves = (points.size() + cap - 1) / cap;
  const size_t slabs = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(num_leaves))));
  const size_t slab_size = slabs * cap;
  for (size_t begin = 0; begin < points.size(); begin += slab_size) {
    size_t end = std::min(begin + slab_size, points.size());
    std::sort(points.begin() + begin, points.begin() + end,
              [](const auto& a, const auto& b) {
                return a.first.y < b.first.y;
              });
  }

  std::vector<uint32_t> level;  // Node ids of the level under construction.
  for (size_t begin = 0; begin < points.size(); begin += cap) {
    size_t end = std::min(begin + cap, points.size());
    uint32_t id = tree.NewNode(/*is_leaf=*/true);
    for (size_t i = begin; i < end; ++i) {
      tree.nodes_[id].entries.push_back(
          Entry{Rect::FromPoint(points[i].first), points[i].second});
    }
    level.push_back(id);
  }
  tree.size_ = points.size();

  // Pack upper levels by rect center until one node remains.
  while (level.size() > 1) {
    std::sort(level.begin(), level.end(), [&](uint32_t a, uint32_t b) {
      return tree.NodeRect(a).Center().x < tree.NodeRect(b).Center().x;
    });
    const size_t num_parents = (level.size() + cap - 1) / cap;
    const size_t pslabs = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(num_parents))));
    const size_t pslab_size = pslabs * cap;
    for (size_t begin = 0; begin < level.size(); begin += pslab_size) {
      size_t end = std::min(begin + pslab_size, level.size());
      std::sort(level.begin() + begin, level.begin() + end,
                [&](uint32_t a, uint32_t b) {
                  return tree.NodeRect(a).Center().y <
                         tree.NodeRect(b).Center().y;
                });
    }
    std::vector<uint32_t> parents;
    for (size_t begin = 0; begin < level.size(); begin += cap) {
      size_t end = std::min(begin + cap, level.size());
      uint32_t id = tree.NewNode(/*is_leaf=*/false);
      for (size_t i = begin; i < end; ++i) {
        tree.nodes_[id].entries.push_back(
            Entry{tree.NodeRect(level[i]), level[i]});
        tree.nodes_[level[i]].parent = id;
      }
      parents.push_back(id);
    }
    level = std::move(parents);
  }
  tree.root_ = level.front();
  return tree;
}

uint32_t RTree::Height() const {
  if (root_ == kNoNode) return 0;
  uint32_t h = 1;
  uint32_t current = root_;
  while (!nodes_[current].is_leaf) {
    ++h;
    current = static_cast<uint32_t>(nodes_[current].entries.front().id);
  }
  return h;
}

uint64_t RTree::MemoryUsageBytes() const {
  uint64_t bytes = nodes_.capacity() * sizeof(Node);
  for (const Node& n : nodes_) {
    bytes += n.entries.capacity() * sizeof(Entry);
  }
  return bytes;
}

void RTree::CollectLeafEntries(uint32_t id, std::vector<Entry>* out) const {
  const Node& n = nodes_[id];
  if (n.is_leaf) {
    out->insert(out->end(), n.entries.begin(), n.entries.end());
    return;
  }
  for (const Entry& e : n.entries) {
    CollectLeafEntries(static_cast<uint32_t>(e.id), out);
  }
}

uint64_t RTree::RangeQuery(const Rect& range,
                           std::vector<uint64_t>* out) const {
  if (empty()) return 0;
  uint64_t nodes_visited = 0;
  std::vector<uint32_t> stack{root_};
  while (!stack.empty()) {
    uint32_t id = stack.back();
    stack.pop_back();
    ++nodes_visited;
    const Node& node = nodes_[id];
    for (const Entry& e : node.entries) {
      if (!range.Intersects(e.rect)) continue;
      if (node.is_leaf) {
        out->push_back(e.id);
      } else {
        stack.push_back(static_cast<uint32_t>(e.id));
      }
    }
  }
  return nodes_visited;
}

std::vector<std::pair<double, uint64_t>> RTree::KnnQuery(const Point& query,
                                                         size_t k) const {
  std::vector<std::pair<double, uint64_t>> out;
  NearestIterator it(this, query);
  NearestIterator::Item item;
  while (out.size() < k && it.NextData(&item)) {
    out.emplace_back(item.distance, item.id);
  }
  return out;
}

namespace {
constexpr uint32_t kRTreeMagic = 0x4B535254u;  // "KSRT"
constexpr uint32_t kRTreeFormatVersion = 2;
/// Smallest serialized node: is_leaf u8 + parent u32 + entry count u64.
constexpr uint64_t kMinNodeBytes = 13;
}  // namespace

Status RTree::Save(const std::string& path, FileSystem* fs,
                   ArtifactInfo* info) const {
  if (fs == nullptr) fs = DefaultFileSystem();
  return WriteArtifactAtomically(
      fs, path, kRTreeMagic, kRTreeFormatVersion,
      [this](ChecksummedWriter* w) -> Status {
        std::string meta;
        AppendPod(&meta, options_.max_entries);
        AppendPod(&meta, options_.min_entries);
        AppendPod(&meta, root_);
        AppendPod<uint64_t>(&meta, size_);
        AppendPod<uint64_t>(&meta, nodes_.size());
        KSP_RETURN_NOT_OK(w->WriteSection(meta));
        std::string nodes;
        for (const Node& node : nodes_) {
          AppendPod<uint8_t>(&nodes, node.is_leaf ? 1 : 0);
          AppendPod(&nodes, node.parent);
          AppendPodVector(&nodes, node.entries);
        }
        return w->WriteSection(nodes);
      },
      info);
}

Result<RTree> RTree::Load(const std::string& path, FileSystem* fs) {
  if (fs == nullptr) fs = DefaultFileSystem();
  auto file = fs->NewRandomAccessFile(path);
  if (!file.ok()) return file.status();
  RTree tree;
  ChecksummedReader reader(file->get());
  uint32_t version = 0;
  KSP_RETURN_NOT_OK(reader.Open(kRTreeMagic, &version));
  if (version != kRTreeFormatVersion) {
    return CorruptionAt(path, 4, "unsupported rtree format version " +
                                     std::to_string(version));
  }
  std::string meta;
  const uint64_t meta_offset = reader.offset();
  KSP_RETURN_NOT_OK(reader.ReadSection(&meta));
  uint64_t num_nodes = 0;
  size_t pos = 0;
  auto parse_meta = [&]() -> Status {
    uint64_t size = 0;
    KSP_RETURN_NOT_OK(ParsePod(meta, &pos, &tree.options_.max_entries));
    KSP_RETURN_NOT_OK(ParsePod(meta, &pos, &tree.options_.min_entries));
    KSP_RETURN_NOT_OK(ParsePod(meta, &pos, &tree.root_));
    KSP_RETURN_NOT_OK(ParsePod(meta, &pos, &size));
    KSP_RETURN_NOT_OK(ParsePod(meta, &pos, &num_nodes));
    if (pos != meta.size()) {
      return Status::Corruption("meta section size mismatch");
    }
    tree.size_ = size;
    return Status::OK();
  };
  if (Status st = parse_meta(); !st.ok()) {
    return CorruptionAt(path, meta_offset, st.message());
  }
  std::string nodes;
  const uint64_t nodes_offset = reader.offset();
  KSP_RETURN_NOT_OK(reader.ReadSection(&nodes));
  KSP_RETURN_NOT_OK(reader.ExpectEnd());
  if (num_nodes > nodes.size() / kMinNodeBytes) {
    return CorruptionAt(path, nodes_offset,
                        "node count exceeds section size");
  }
  tree.nodes_.resize(num_nodes);
  pos = 0;
  auto parse_nodes = [&]() -> Status {
    for (Node& node : tree.nodes_) {
      uint8_t is_leaf = 0;
      KSP_RETURN_NOT_OK(ParsePod(nodes, &pos, &is_leaf));
      node.is_leaf = is_leaf != 0;
      KSP_RETURN_NOT_OK(ParsePod(nodes, &pos, &node.parent));
      KSP_RETURN_NOT_OK(ParsePodVector(nodes, &pos, &node.entries));
    }
    if (pos != nodes.size()) {
      return Status::Corruption("node section size mismatch");
    }
    return Status::OK();
  };
  if (Status st = parse_nodes(); !st.ok()) {
    return CorruptionAt(path, nodes_offset, st.message());
  }
  if (tree.options_.max_entries < 4 || tree.options_.min_entries < 1 ||
      tree.options_.min_entries > tree.options_.max_entries / 2) {
    return CorruptionAt(path, 0, "rtree options out of range");
  }
  if (tree.root_ != kNoNode && tree.root_ >= tree.nodes_.size()) {
    return CorruptionAt(path, 0, "rtree root out of range");
  }
  return tree;
}

NearestIterator::NearestIterator(const RTree* tree, const Point& query)
    : NearestIterator(std::make_unique<MemorySpatialAccessor>(tree), query) {}

NearestIterator::NearestIterator(std::unique_ptr<MemorySpatialAccessor> owned,
                                 const Point& query)
    : NearestIterator(owned.get(), query) {
  owned_accessor_ = std::move(owned);
}

NearestIterator::NearestIterator(const SpatialAccessor* accessor,
                                 const Point& query)
    : accessor_(accessor), query_(query) {
  if (!accessor_->empty()) {
    uint32_t root = accessor_->root();
    Rect rect = Rect::Empty();
    status_ = accessor_->NodeRect(root, &cursor_, &rect);
    if (!status_.ok()) return;
    Push(HeapItem{MinDist(query_, rect), /*is_node=*/true, root, rect});
  }
}

void NearestIterator::Push(const HeapItem& item) {
  heap_.push_back(item);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
}

bool NearestIterator::Pop(HeapItem* out) {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
  *out = heap_.back();
  heap_.pop_back();
  return true;
}

bool NearestIterator::Next(Item* out) {
  if (!status_.ok()) return false;
  HeapItem item;
  if (!Pop(&item)) return false;
  if (item.is_node) {
    ++nodes_accessed_;
    SpatialNodeRef node;
    status_ = accessor_->ReadNode(static_cast<uint32_t>(item.id),
                                  &cursor_, &node);
    if (!status_.ok()) return false;
    for (const RTree::Entry& e : node.entries) {
      Push(HeapItem{MinDist(query_, e.rect), !node.is_leaf, e.id, e.rect});
    }
  }
  out->distance = item.distance;
  out->is_node = item.is_node;
  out->id = item.id;
  out->rect = item.rect;
  return true;
}

bool NearestIterator::NextData(Item* out) {
  while (Next(out)) {
    if (!out->is_node) return true;
  }
  return false;
}

}  // namespace ksp
