#include "spatial/paged_rtree.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "common/io_util.h"

namespace ksp {

namespace {
constexpr uint32_t kPagedRTreeMagic = 0x5452504Bu;  // "KPRT"
constexpr uint32_t kPagedRTreeFormatVersion = 1;

static_assert(std::is_trivially_copyable_v<RTree::Entry>,
              "entries are memcpy'd into page slots");
constexpr uint64_t kEntryBytes = sizeof(RTree::Entry);

uint32_t NodeStrideFor(uint32_t max_entries, uint32_t page_size) {
  const uint64_t node_bytes =
      PagedRTree::kNodeHeaderBytes + max_entries * kEntryBytes;
  const uint64_t pages = (node_bytes + page_size - 1) / page_size;
  return static_cast<uint32_t>(pages * page_size);
}
}  // namespace

Status PagedRTree::Write(const RTree& tree, const std::string& path,
                         uint32_t page_size, FileSystem* fs,
                         ArtifactInfo* info) {
  if (fs == nullptr) fs = DefaultFileSystem();
  if (page_size < kNodeHeaderBytes) {
    return Status::InvalidArgument("page size too small for a node header");
  }
  return WriteArtifactAtomically(
      fs, path, kPagedRTreeMagic, kPagedRTreeFormatVersion,
      [&tree, page_size](ChecksummedWriter* w) -> Status {
        // The options are not reachable through the RTree API; recover
        // the fan-out from the widest node (it bounds every slot).
        uint32_t max_entries = 4;
        for (size_t i = 0; i < tree.num_nodes(); ++i) {
          max_entries = std::max(
              max_entries,
              static_cast<uint32_t>(
                  tree.node(static_cast<uint32_t>(i)).entries.size()));
        }
        const uint32_t stride = NodeStrideFor(max_entries, page_size);

        std::string meta;
        AppendPod(&meta, max_entries);
        AppendPod<uint32_t>(&meta, /*min_entries=*/1);
        AppendPod(&meta, tree.root());
        AppendPod<uint64_t>(&meta, tree.size());
        AppendPod<uint64_t>(&meta, tree.num_nodes());
        AppendPod(&meta, page_size);
        AppendPod(&meta, stride);
        KSP_RETURN_NOT_OK(w->WriteSection(meta));

        // Pad so the pages-section *payload* starts on a page boundary:
        // after this section's [len u64] + pad + [crc u32] comes the
        // pages section's own [len u64].
        const uint64_t prefix = w->bytes_written() + 8 + 4 + 8;
        const uint64_t pad_len =
            (page_size - (prefix % page_size)) % page_size;
        KSP_RETURN_NOT_OK(w->WriteSection(std::string(pad_len, '\0')));

        std::string pages(tree.num_nodes() * static_cast<uint64_t>(stride),
                          '\0');
        for (size_t i = 0; i < tree.num_nodes(); ++i) {
          const RTree::Node& node = tree.node(static_cast<uint32_t>(i));
          char* slot = pages.data() + i * static_cast<uint64_t>(stride);
          slot[0] = node.is_leaf ? 1 : 0;
          const uint32_t num_entries =
              static_cast<uint32_t>(node.entries.size());
          std::memcpy(slot + 4, &num_entries, sizeof(num_entries));
          std::memcpy(slot + 8, &node.parent, sizeof(node.parent));
          if (!node.entries.empty()) {
            std::memcpy(slot + kNodeHeaderBytes, node.entries.data(),
                        node.entries.size() * kEntryBytes);
          }
        }
        return w->WriteSection(pages);
      },
      info);
}

Result<std::unique_ptr<PagedRTree>> PagedRTree::Open(
    const std::string& path, SharedBufferPool* pool, FileSystem* fs) {
  if (fs == nullptr) fs = DefaultFileSystem();
  KSP_ASSIGN_OR_RETURN(auto file, fs->NewRandomAccessFile(path));
  auto tree = std::unique_ptr<PagedRTree>(new PagedRTree());
  tree->file_ = std::move(file);

  ChecksummedReader reader(tree->file_.get());
  uint32_t version = 0;
  KSP_RETURN_NOT_OK(reader.Open(kPagedRTreeMagic, &version));
  if (version != kPagedRTreeFormatVersion) {
    return CorruptionAt(path, 4, "unsupported paged rtree version " +
                                     std::to_string(version));
  }

  std::string meta;
  const uint64_t meta_offset = reader.offset();
  KSP_RETURN_NOT_OK(reader.ReadSection(&meta));
  size_t pos = 0;
  auto parse_meta = [&]() -> Status {
    KSP_RETURN_NOT_OK(ParsePod(meta, &pos, &tree->max_entries_));
    KSP_RETURN_NOT_OK(ParsePod(meta, &pos, &tree->min_entries_));
    KSP_RETURN_NOT_OK(ParsePod(meta, &pos, &tree->root_));
    KSP_RETURN_NOT_OK(ParsePod(meta, &pos, &tree->size_));
    KSP_RETURN_NOT_OK(ParsePod(meta, &pos, &tree->num_nodes_));
    KSP_RETURN_NOT_OK(ParsePod(meta, &pos, &tree->page_size_));
    KSP_RETURN_NOT_OK(ParsePod(meta, &pos, &tree->node_stride_));
    if (pos != meta.size()) {
      return Status::Corruption("meta section size mismatch");
    }
    return Status::OK();
  };
  if (Status st = parse_meta(); !st.ok()) {
    return CorruptionAt(path, meta_offset, st.message());
  }

  uint64_t pad_offset = 0;
  uint64_t pad_size = 0;
  KSP_RETURN_NOT_OK(reader.VerifySection(&pad_offset, &pad_size));
  const uint64_t pages_offset_field = reader.offset();
  KSP_RETURN_NOT_OK(
      reader.VerifySection(&tree->pages_offset_, &tree->pages_size_check_));
  KSP_RETURN_NOT_OK(reader.ExpectEnd());

  if (tree->page_size_ == 0 || tree->node_stride_ == 0 ||
      tree->node_stride_ % tree->page_size_ != 0 ||
      tree->node_stride_ <
          kNodeHeaderBytes + tree->max_entries_ * kEntryBytes ||
      tree->max_entries_ < 4) {
    return CorruptionAt(path, meta_offset, "paged rtree geometry invalid");
  }
  if (tree->pages_size_check_ !=
      tree->num_nodes_ * static_cast<uint64_t>(tree->node_stride_)) {
    return CorruptionAt(path, pages_offset_field,
                        "pages section size does not match node count");
  }
  if (tree->num_nodes_ > 0 &&
      tree->pages_offset_ % tree->page_size_ != 0) {
    return CorruptionAt(path, pages_offset_field,
                        "pages section payload is not page-aligned");
  }
  if (tree->root_ != RTree::kNoNode && tree->root_ >= tree->num_nodes_) {
    return CorruptionAt(path, meta_offset, "paged rtree root out of range");
  }
  if (tree->size_ > 0 && tree->root_ == RTree::kNoNode) {
    return CorruptionAt(path, meta_offset, "non-empty tree without a root");
  }
  if (pool->page_size() != tree->page_size_) {
    return Status::InvalidArgument(
        "paged rtree page size does not match the buffer pool");
  }
  tree->pool_ = pool;
  tree->file_id_ = pool->RegisterFile(tree->file_.get());
  return tree;
}

PagedRTree::~PagedRTree() {
  if (pool_ != nullptr) pool_->DropFile(file_id_);
}

Status PagedRTree::ReadNode(uint32_t id, SpatialCursor* cursor,
                            SpatialNodeRef* out) const {
  if (id >= num_nodes_) {
    return Status::InvalidArgument("paged rtree node id out of range");
  }
  const uint64_t slot_offset =
      pages_offset_ + static_cast<uint64_t>(id) * node_stride_;
  // A one-page slot is read straight from the pinned frame; `page` is
  // released on return, before the cursor's next fetch.
  SharedBufferPool::PageRef page;
  std::string_view slot_bytes;
  KSP_RETURN_NOT_OK(pool_->ReadRange(file_id_, slot_offset, node_stride_,
                                     &page, &cursor->buf, &slot_bytes,
                                     &cursor->io));
  const char* slot = slot_bytes.data();
  uint32_t num_entries = 0;
  std::memcpy(&num_entries, slot + 4, sizeof(num_entries));
  if (num_entries > max_entries_) {
    return Status::Corruption("node entry count exceeds fan-out");
  }
  cursor->entries.resize(num_entries);
  if (num_entries > 0) {
    std::memcpy(cursor->entries.data(), slot + kNodeHeaderBytes,
                num_entries * kEntryBytes);
  }
  out->is_leaf = slot[0] != 0;
  out->entries = {cursor->entries.data(), num_entries};
  return Status::OK();
}

}  // namespace ksp
