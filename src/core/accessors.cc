#include "core/accessors.h"

#include <algorithm>

#include "common/io_util.h"
#include "common/simd_varint.h"
#include "common/varint.h"
#include "storage/disk_graph.h"

namespace ksp {

Result<std::unique_ptr<DiskGraphAccessor>> DiskGraphAccessor::Open(
    const std::string& out_path, const std::string& in_path,
    SharedBufferPool* pool, FileSystem* fs) {
  if (fs == nullptr) fs = DefaultFileSystem();
  auto accessor =
      std::unique_ptr<DiskGraphAccessor>(new DiskGraphAccessor());
  accessor->pool_ = pool;
  VertexId out_n = 0;
  VertexId in_n = 0;
  uint64_t out_m = 0;
  uint64_t in_m = 0;
  KSP_RETURN_NOT_OK(OpenDirection(out_path, fs, pool, &accessor->out_,
                                  &out_n, &out_m));
  KSP_RETURN_NOT_OK(
      OpenDirection(in_path, fs, pool, &accessor->in_, &in_n, &in_m));
  if (out_n != in_n || out_m != in_m) {
    return Status::Corruption(
        "graph and transpose disagree on vertex/edge counts");
  }
  accessor->num_vertices_ = out_n;
  accessor->num_edges_ = out_m;
  return accessor;
}

DiskGraphAccessor::~DiskGraphAccessor() {
  if (pool_ == nullptr) return;
  if (out_.file != nullptr) pool_->DropFile(out_.file_id);
  if (in_.file != nullptr) pool_->DropFile(in_.file_id);
}

Status DiskGraphAccessor::OpenDirection(const std::string& path,
                                        FileSystem* fs,
                                        SharedBufferPool* pool,
                                        Direction* dir,
                                        VertexId* num_vertices,
                                        uint64_t* num_edges) {
  KSP_ASSIGN_OR_RETURN(dir->file, fs->NewRandomAccessFile(path));
  const uint64_t file_size = dir->file->Size();

  // Header: [magic u32][page_size u32][num_vertices u64][num_edges u64].
  std::string header;
  KSP_RETURN_NOT_OK(dir->file->Read(0, 24, &header));
  if (header.size() != 24) return CorruptionAt(path, 0, "short header");
  size_t pos = 0;
  uint32_t magic = 0;
  uint32_t page_size = 0;
  uint64_t n = 0;
  KSP_RETURN_NOT_OK(GetFixed32(header, &pos, &magic));
  KSP_RETURN_NOT_OK(GetFixed32(header, &pos, &page_size));
  KSP_RETURN_NOT_OK(GetFixed64(header, &pos, &n));
  KSP_RETURN_NOT_OK(GetFixed64(header, &pos, num_edges));
  if (magic != DiskGraph::kMagic) {
    return CorruptionAt(path, 0, "bad graph magic");
  }
  if (page_size != pool->page_size()) {
    return Status::InvalidArgument(
        "graph page size does not match the buffer pool");
  }
  const uint64_t table_bytes = (n + 1) * 8ULL;
  if (24 + table_bytes + 4 > file_size) {
    return CorruptionAt(path, 0, "vertex count exceeds file size");
  }

  // Offset table (memory-resident, like the paper's vertex lookup table).
  std::string table;
  KSP_RETURN_NOT_OK(dir->file->Read(24, table_bytes, &table));
  if (table.size() != table_bytes) {
    return IOErrorAt(path, 24, "cannot read offset table");
  }
  dir->offsets.resize(n + 1);
  size_t tpos = 0;
  const uint64_t data_begin = 24 + table_bytes;
  uint64_t prev = data_begin;
  for (uint64_t v = 0; v <= n; ++v) {
    KSP_RETURN_NOT_OK(GetFixed64(table, &tpos, &dir->offsets[v]));
    if (dir->offsets[v] < prev || dir->offsets[v] > file_size - 4) {
      return CorruptionAt(path, 24 + v * 8, "offset table inconsistent");
    }
    prev = dir->offsets[v];
  }
  if (dir->offsets.front() != data_begin) {
    return CorruptionAt(path, 24, "offset table inconsistent");
  }

  // Footer magic.
  std::string footer;
  KSP_RETURN_NOT_OK(dir->file->Read(file_size - 4, 4, &footer));
  size_t fpos = 0;
  uint32_t fmagic = 0;
  if (footer.size() != 4 || !GetFixed32(footer, &fpos, &fmagic).ok() ||
      fmagic != DiskGraph::kMagic) {
    return CorruptionAt(path, file_size - 4, "bad graph footer");
  }

  *num_vertices = static_cast<VertexId>(n);
  dir->file_id = pool->RegisterFile(dir->file.get());
  return Status::OK();
}

std::span<const VertexId> DiskGraphAccessor::Decode(
    const Direction& dir, VertexId v, std::vector<VertexId>* scratch,
    GraphCursor* c) const {
  scratch->clear();
  if (!c->status.ok()) return {};
  const uint64_t begin = dir.offsets[v];
  const uint64_t length = dir.offsets[v + 1] - begin;
  // `page` pins the frame a one-page record is decoded from; it is
  // released on return, before this cursor's next fetch.
  SharedBufferPool::PageRef page;
  std::string_view record;
  Status st = pool_->ReadRange(dir.file_id, begin, length, &page, &c->buf,
                               &record, &c->io);
  if (st.ok()) {
    size_t pos = 0;
    uint64_t count = 0;
    st = GetVarint64(record, &pos, &count);
    if (st.ok() && count > length - pos) {
      st = Status::Corruption("neighbour count exceeds record");
    }
    if (st.ok()) {
      scratch->reserve(count);
      st = DecodeVarintDeltas(record, &pos, count, num_vertices_,
                              "neighbour id out of range", scratch);
    }
  }
  if (!st.ok()) {
    c->status = st;
    scratch->clear();
    return {};
  }
  return {scratch->data(), scratch->size()};
}

std::span<const VertexId> DiskGraphAccessor::OutNeighbors(
    VertexId v, GraphCursor* c) const {
  return Decode(out_, v, &c->out_scratch, c);
}

std::span<const VertexId> DiskGraphAccessor::InNeighbors(
    VertexId v, GraphCursor* c) const {
  return Decode(in_, v, &c->in_scratch, c);
}

Status MemoryPostingsAccessor::Fetch(TermId term,
                                     std::vector<VertexId>* backing,
                                     std::span<const VertexId>* view,
                                     PageIoCounters* io) const {
  (void)io;
  if (auto span = index_->PostingsSpan(term); span.has_value()) {
    *view = *span;
    return Status::OK();
  }
  backing->clear();
  KSP_RETURN_NOT_OK(index_->GetPostings(term, backing));
  *view = {backing->data(), backing->size()};
  return Status::OK();
}

Result<std::unique_ptr<DiskPostingsAccessor>> DiskPostingsAccessor::Open(
    const std::string& path, SharedBufferPool* pool, FileSystem* fs) {
  if (fs == nullptr) fs = DefaultFileSystem();
  // Open (and CRC-verify) through the regular codec first, then attach
  // a second handle for pooled page reads.
  KSP_ASSIGN_OR_RETURN(auto index, DiskInvertedIndex::Open(path, fs));
  auto accessor =
      std::unique_ptr<DiskPostingsAccessor>(new DiskPostingsAccessor());
  accessor->index_ = std::move(index);
  KSP_ASSIGN_OR_RETURN(accessor->file_, fs->NewRandomAccessFile(path));
  accessor->pool_ = pool;
  accessor->file_id_ = pool->RegisterFile(accessor->file_.get());
  return accessor;
}

DiskPostingsAccessor::~DiskPostingsAccessor() {
  if (pool_ != nullptr) pool_->DropFile(file_id_);
}

Status DiskPostingsAccessor::Fetch(TermId term,
                                   std::vector<VertexId>* backing,
                                   std::span<const VertexId>* view,
                                   PageIoCounters* io) const {
  backing->clear();
  *view = {};
  uint64_t begin = 0;
  uint64_t end = 0;
  KSP_RETURN_NOT_OK(index_->PostingRange(term, &begin, &end));
  if (end == begin) return Status::OK();

  SharedBufferPool::PageRef page;
  std::string scratch;
  std::string_view list;
  KSP_RETURN_NOT_OK(pool_->ReadRange(file_id_,
                                     index_->blob_offset() + begin,
                                     end - begin, &page, &scratch, &list,
                                     io));
  size_t pos = 0;
  uint64_t count = 0;
  KSP_RETURN_NOT_OK(GetVarint64(list, &pos, &count));
  if (count > list.size() - pos) {
    return Status::Corruption("posting count exceeds record");
  }
  backing->reserve(count);
  KSP_RETURN_NOT_OK(DecodeVarintDeltas(list, &pos, count, kVarintNoLimit,
                                       nullptr, backing));
  *view = {backing->data(), backing->size()};
  return Status::OK();
}

}  // namespace ksp
