#ifndef KSP_TEXT_INVERTED_INDEX_H_
#define KSP_TEXT_INVERTED_INDEX_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/file.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "text/document_store.h"

namespace ksp {

struct ArtifactInfo;

/// Term -> sorted vertex posting list, heap-resident, built directly from
/// a DocumentStore. The paper keeps this index disk-resident (only the
/// query keywords' lists are loaded per query); DiskInvertedIndex below
/// is that form, which the kDisk backend reads through its buffer pool.
class MemoryInvertedIndex {
 public:
  /// Builds postings for all terms in [0, num_terms).
  static MemoryInvertedIndex Build(const DocumentStore& docs,
                                   TermId num_terms);

  /// Appends the (sorted ascending) posting list of `term` to `*out`.
  /// Unknown terms yield an empty list and OK status.
  Status GetPostings(TermId term, std::vector<VertexId>* out) const;

  /// Number of distinct terms with at least one posting.
  uint64_t NumTerms() const;

  /// Total number of postings across all terms.
  uint64_t NumPostings() const { return postings_.size(); }

  /// Heap bytes occupied.
  uint64_t SizeBytes() const;

  /// Mean posting-list length — the paper's "keyword frequency" statistic
  /// (56.46 for DBpedia, 7.83 for Yago).
  double AveragePostingLength() const {
    uint64_t t = NumTerms();
    return t == 0 ? 0.0
                  : static_cast<double>(NumPostings()) /
                        static_cast<double>(t);
  }

  /// Size of the id space the index was built over (terms with empty lists
  /// included).
  TermId TermCount() const {
    return static_cast<TermId>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }

  /// Zero-copy view, valid for the index's lifetime; unknown terms yield
  /// an empty span.
  std::span<const VertexId> Postings(TermId term) const {
    if (term + 1 >= offsets_.size()) return {};
    return {postings_.data() + offsets_[term],
            postings_.data() + offsets_[term + 1]};
  }

 private:
  std::vector<uint64_t> offsets_;  // size num_terms + 1
  std::vector<VertexId> postings_;
};

/// Disk-resident inverted index: postings are varint-delta encoded in a
/// single file; only an offset table is kept in memory and each
/// GetPostings() performs one positioned read — mirroring the paper's
/// "commercial search engine" setting.
///
/// v2 layout (inside the checksummed container of common/io_util.h):
///   container magic u32
///   header section:   artifact magic u32, format version u32
///   meta section:     num_terms u32, num_postings u64
///   postings section: per term varint count, then `count` varint deltas
///                     (first is absolute); offsets are blob-relative
///   table section:    num_terms fixed64 blob-relative offsets
/// Write commits via temp-file + fsync + atomic rename; Open CRC-verifies
/// every section (the postings blob is streamed) before any query runs,
/// so positioned reads at query time stay checksum-covered.
class DiskInvertedIndex {
 public:
  DiskInvertedIndex(const DiskInvertedIndex&) = delete;
  DiskInvertedIndex& operator=(const DiskInvertedIndex&) = delete;

  /// Serializes a memory index to `path` (atomic, checksummed).
  static Status Write(const MemoryInvertedIndex& index,
                      const std::string& path, FileSystem* fs = nullptr,
                      ArtifactInfo* info = nullptr);

  /// Opens an index previously produced by Write().
  static Result<std::unique_ptr<DiskInvertedIndex>> Open(
      const std::string& path, FileSystem* fs = nullptr);

  /// Same contract as MemoryInvertedIndex::GetPostings.
  Status GetPostings(TermId term, std::vector<VertexId>* out) const;
  uint64_t NumTerms() const { return offsets_.size(); }
  uint64_t NumPostings() const { return num_postings_; }
  /// File size in bytes.
  uint64_t SizeBytes() const { return file_size_; }

  /// File range of the varint posting blob (CRC-verified at Open) —
  /// exposed so a pooled reader can route posting decodes through a
  /// shared buffer pool instead of this object's private pread path.
  uint64_t blob_offset() const { return blob_offset_; }
  uint64_t blob_size() const { return blob_size_; }
  const std::string& path() const { return file_->path(); }

  /// Blob-relative byte range [*begin, *end) of `term`'s encoded list.
  /// Unknown terms yield the empty range [0, 0) and OK status.
  Status PostingRange(TermId term, uint64_t* begin, uint64_t* end) const {
    if (term >= offsets_.size()) {
      *begin = *end = 0;
      return Status::OK();
    }
    *begin = offsets_[term];
    *end = term + 1 < offsets_.size() ? offsets_[term + 1] : blob_size_;
    if (*end < *begin || *end > blob_size_) {
      return Status::Corruption("posting offsets not monotonic");
    }
    return Status::OK();
  }

 private:
  DiskInvertedIndex() = default;

  std::unique_ptr<RandomAccessFile> file_;
  /// Blob-relative posting-list offsets (absolute == blob_offset_ + off).
  std::vector<uint64_t> offsets_;
  /// File range of the varint posting blob.
  uint64_t blob_offset_ = 0;
  uint64_t blob_size_ = 0;
  uint64_t num_postings_ = 0;
  uint64_t file_size_ = 0;
};

}  // namespace ksp

#endif  // KSP_TEXT_INVERTED_INDEX_H_
