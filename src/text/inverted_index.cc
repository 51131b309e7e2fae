#include "text/inverted_index.h"

#include <algorithm>
#include <cstring>
#include <span>

#include "common/io_util.h"
#include "common/varint.h"

namespace ksp {

namespace {
constexpr uint32_t kMagic = 0x4B535049;  // "KSPI"
constexpr uint32_t kFormatVersion = 2;

/// Varint-delta encodes one posting list onto `*buf`.
void AppendPostingList(std::string* buf, std::span<const VertexId> postings) {
  PutVarint64(buf, postings.size());
  uint64_t prev = 0;
  for (size_t i = 0; i < postings.size(); ++i) {
    uint64_t value = postings[i];
    PutVarint64(buf, i == 0 ? value : value - prev);
    prev = value;
  }
}
}  // namespace

MemoryInvertedIndex MemoryInvertedIndex::Build(const DocumentStore& docs,
                                               TermId num_terms) {
  MemoryInvertedIndex index;
  // Counting pass, then fill: stable O(postings) without per-term vectors.
  std::vector<uint64_t> counts(num_terms, 0);
  const VertexId n = docs.num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    for (TermId t : docs.Terms(v)) ++counts[t];
  }
  index.offsets_.assign(num_terms + 1, 0);
  for (TermId t = 0; t < num_terms; ++t) {
    index.offsets_[t + 1] = index.offsets_[t] + counts[t];
  }
  index.postings_.resize(index.offsets_[num_terms]);
  std::vector<uint64_t> cursor(index.offsets_.begin(),
                               index.offsets_.end() - 1);
  for (VertexId v = 0; v < n; ++v) {
    for (TermId t : docs.Terms(v)) {
      index.postings_[cursor[t]++] = v;
    }
  }
  // Vertices are visited in ascending order, so lists are already sorted.
  return index;
}

Status MemoryInvertedIndex::GetPostings(TermId term,
                                        std::vector<VertexId>* out) const {
  auto span = Postings(term);
  out->insert(out->end(), span.begin(), span.end());
  return Status::OK();
}

uint64_t MemoryInvertedIndex::NumTerms() const {
  uint64_t n = 0;
  for (size_t t = 0; t + 1 < offsets_.size(); ++t) {
    if (offsets_[t + 1] > offsets_[t]) ++n;
  }
  return n;
}

uint64_t MemoryInvertedIndex::SizeBytes() const {
  return offsets_.capacity() * sizeof(uint64_t) +
         postings_.capacity() * sizeof(VertexId);
}

Status DiskInvertedIndex::Write(const MemoryInvertedIndex& index,
                                const std::string& path, FileSystem* fs,
                                ArtifactInfo* info) {
  if (fs == nullptr) fs = DefaultFileSystem();
  const TermId num_terms = index.TermCount();
  return WriteArtifactAtomically(
      fs, path, kMagic, kFormatVersion,
      [&index, num_terms](ChecksummedWriter* w) -> Status {
        std::string meta;
        AppendPod(&meta, static_cast<uint32_t>(num_terms));
        AppendPod(&meta, index.NumPostings());
        KSP_RETURN_NOT_OK(w->WriteSection(meta));

        // Postings blob with blob-relative offsets, then the table.
        std::string blob;
        std::vector<uint64_t> offsets(num_terms, 0);
        for (TermId t = 0; t < num_terms; ++t) {
          offsets[t] = blob.size();
          AppendPostingList(&blob, index.Postings(t));
        }
        KSP_RETURN_NOT_OK(w->WriteSection(blob));

        std::string table;
        table.reserve(offsets.size() * 8);
        for (uint64_t off : offsets) PutFixed64(&table, off);
        return w->WriteSection(table);
      },
      info);
}

Result<std::unique_ptr<DiskInvertedIndex>> DiskInvertedIndex::Open(
    const std::string& path, FileSystem* fs) {
  if (fs == nullptr) fs = DefaultFileSystem();
  auto file = fs->NewRandomAccessFile(path);
  if (!file.ok()) return file.status();
  auto index = std::unique_ptr<DiskInvertedIndex>(new DiskInvertedIndex());
  index->file_ = std::move(*file);
  index->file_size_ = index->file_->Size();
  ChecksummedReader reader(index->file_.get());
  uint32_t version = 0;
  KSP_RETURN_NOT_OK(reader.Open(kMagic, &version));
  if (version != kFormatVersion) {
    return CorruptionAt(path, 4,
                        "unsupported inverted-index format version " +
                            std::to_string(version));
  }

  std::string meta;
  const uint64_t meta_offset = reader.offset();
  KSP_RETURN_NOT_OK(reader.ReadSection(&meta));
  size_t mpos = 0;
  uint32_t num_terms = 0;
  Status st = ParsePod(meta, &mpos, &num_terms);
  if (st.ok()) st = ParsePod(meta, &mpos, &index->num_postings_);
  if (!st.ok() || mpos != meta.size()) {
    return CorruptionAt(path, meta_offset, "malformed meta section");
  }

  // The postings blob is CRC-verified in place (streamed, not held in
  // memory) so per-query positioned reads hit validated bytes.
  KSP_RETURN_NOT_OK(
      reader.VerifySection(&index->blob_offset_, &index->blob_size_));

  std::string table;
  const uint64_t table_offset = reader.offset();
  KSP_RETURN_NOT_OK(reader.ReadSection(&table));
  KSP_RETURN_NOT_OK(reader.ExpectEnd());
  if (table.size() != num_terms * 8ULL) {
    return CorruptionAt(path, table_offset, "offset table size mismatch");
  }
  index->offsets_.resize(num_terms);
  size_t tpos = 0;
  for (uint32_t t = 0; t < num_terms; ++t) {
    KSP_RETURN_NOT_OK(GetFixed64(table, &tpos, &index->offsets_[t]));
    if (index->offsets_[t] > index->blob_size_) {
      return CorruptionAt(path, table_offset + t * 8ULL,
                          "posting offset beyond blob");
    }
  }
  return index;
}

Status DiskInvertedIndex::GetPostings(TermId term,
                                      std::vector<VertexId>* out) const {
  if (term >= offsets_.size()) return Status::OK();
  const uint64_t off = offsets_[term];
  if (off > blob_size_) {
    return CorruptionAt(file_->path(), blob_offset_ + off,
                        "posting offset beyond blob");
  }
  const uint64_t remaining = blob_size_ - off;

  // Read the count (at most 10 bytes), then exactly the remaining deltas.
  std::string buf;
  KSP_RETURN_NOT_OK(
      file_->Read(blob_offset_ + off, std::min<uint64_t>(10, remaining),
                  &buf));
  size_t pos = 0;
  uint64_t count = 0;
  KSP_RETURN_NOT_OK(GetVarint64(buf, &pos, &count));
  // Each delta takes at least one byte; a corrupt count must not drive a
  // multi-GB reserve.
  if (count > remaining - pos) {
    return CorruptionAt(file_->path(), blob_offset_ + off,
                        "posting count exceeds blob");
  }

  std::string body;
  // Worst case 10 bytes per varint delta, bounded by the blob itself.
  const uint64_t want =
      std::min<uint64_t>(count * 10 + 16, remaining - pos);
  KSP_RETURN_NOT_OK(
      file_->Read(blob_offset_ + off + pos, want, &body));

  size_t bpos = 0;
  uint64_t prev = 0;
  out->reserve(out->size() + count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t delta = 0;
    KSP_RETURN_NOT_OK(GetVarint64(body, &bpos, &delta));
    prev = (i == 0) ? delta : prev + delta;
    out->push_back(static_cast<VertexId>(prev));
  }
  return Status::OK();
}

}  // namespace ksp
