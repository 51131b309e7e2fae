#ifndef KSP_COMMON_IO_UTIL_H_
#define KSP_COMMON_IO_UTIL_H_

#include <cstring>
#include <functional>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <vector>

#include "common/file.h"
#include "common/status.h"

namespace ksp {

/// Binary IO helpers for trivially-copyable index payloads (the saved
/// artifacts are machine-local caches, not interchange formats), plus the
/// checksummed container framing every artifact codec writes since format
/// v2:
///
///   file    := [container magic u32] header-section section...
///   section := [payload length u64][payload bytes][crc32c u32]
///
/// The header section's payload is [artifact magic u32][format version
/// u32], so everything past the 4-byte container magic is CRC-protected.
/// Readers validate every section length against the actual file size
/// BEFORE allocating, so a corrupt length prefix yields Status::Corruption
/// instead of a multi-GB resize. All persistence errors carry the file
/// path and byte offset.

/// Error constructors that tag the failing file and byte offset.
Status IOErrorAt(const std::string& path, uint64_t offset, std::string msg);
Status CorruptionAt(const std::string& path, uint64_t offset,
                    std::string msg);

/// ---- Buffer-based POD codec (v2 artifact payload sections) ----

template <typename T>
void AppendPod(std::string* buf, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  buf->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void AppendPodVector(std::string* buf, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  AppendPod<uint64_t>(buf, v.size());
  if (!v.empty()) {
    buf->append(reinterpret_cast<const char*>(v.data()),
                v.size() * sizeof(T));
  }
}

template <typename T>
Status ParsePod(std::string_view src, size_t* pos, T* value) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (*pos > src.size() || sizeof(T) > src.size() - *pos) {
    return Status::Corruption("truncated POD field");
  }
  std::memcpy(value, src.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return Status::OK();
}

/// Bounds-checks the length prefix against the remaining buffer before
/// resizing.
template <typename T>
Status ParsePodVector(std::string_view src, size_t* pos, std::vector<T>* v) {
  static_assert(std::is_trivially_copyable_v<T>);
  uint64_t size = 0;
  KSP_RETURN_NOT_OK(ParsePod(src, pos, &size));
  if (size > (src.size() - *pos) / sizeof(T)) {
    return Status::Corruption(
        "vector length prefix exceeds section payload");
  }
  v->resize(size);
  if (size != 0) {
    std::memcpy(v->data(), src.data() + *pos, size * sizeof(T));
    *pos += size * sizeof(T);
  }
  return Status::OK();
}

/// ---- Checksummed container framing ----

/// First four bytes of every artifact ("CPSK" on disk). ChecksummedReader
/// rejects any other prefix — including the CRC-free v1 layout, which
/// began with the artifact-specific magic — as Corruption.
constexpr uint32_t kChecksummedFileMagic = 0x4B535043u;

/// Writes one checksummed container to a WritableFile: Start() frames the
/// header, WriteSection() frames each payload. Tracks the running
/// whole-file CRC32C and byte count for the saver's MANIFEST entry.
class ChecksummedWriter {
 public:
  explicit ChecksummedWriter(WritableFile* file) : file_(file) {}

  Status Start(uint32_t artifact_magic, uint32_t artifact_version);
  Status WriteSection(std::string_view payload);
  /// Writes `v` as one section whose payload is [u64 count][raw
  /// elements] — the same bytes as WriteSection over AppendPodVector —
  /// straight from the vector's memory, with no staging buffer.
  template <typename T>
  Status WritePodVectorSection(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const uint64_t count = v.size();
    return WriteSectionParts(
        {std::string_view(reinterpret_cast<const char*>(&count),
                          sizeof(count)),
         std::string_view(reinterpret_cast<const char*>(v.data()),
                          v.size() * sizeof(T))});
  }
  uint64_t bytes_written() const { return offset_; }
  /// CRC32C of every byte written so far (the whole-file checksum the
  /// MANIFEST records).
  uint32_t file_crc() const { return file_crc_; }

 private:
  Status RawAppend(std::string_view data);
  /// Frames the concatenation of `parts` as one section, extending the
  /// CRC across the parts.
  Status WriteSectionParts(std::initializer_list<std::string_view> parts);

  WritableFile* file_;
  uint64_t offset_ = 0;
  uint32_t file_crc_ = 0;
};

/// Sequentially reads a checksummed container. Every section length is
/// validated against the real file size before any allocation and every
/// payload is CRC-verified; failures are Status::Corruption with the path
/// and byte offset.
class ChecksummedReader {
 public:
  explicit ChecksummedReader(const RandomAccessFile* file) : file_(file) {}

  /// Validates the container magic and the header section; rejects
  /// artifact-magic mismatches and returns the stored format version.
  Status Open(uint32_t expected_artifact_magic, uint32_t* version);

  /// Reads and CRC-verifies the next section's payload.
  Status ReadSection(std::string* payload);

  /// Reads a WritePodVectorSection section straight into `*v`. The frame
  /// length is checked against the file size, and the element count
  /// against the frame length, before `*v` is resized; the elements are
  /// then read in 64 KiB chunks with the CRC extended as they arrive. On
  /// any failure `*v` is left empty.
  template <typename T>
  Status ReadPodVectorSection(std::vector<T>* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Status st = ReadPodVectorSectionInto(sizeof(T), [v](uint64_t count) {
      v->resize(static_cast<size_t>(count));
      return reinterpret_cast<char*>(v->data());
    });
    if (!st.ok()) v->clear();
    return st;
  }

  /// CRC-verifies the next section in streaming chunks without
  /// materializing it, returning the payload's file range — used for
  /// large regions that are later pread on demand (disk inverted index).
  Status VerifySection(uint64_t* payload_offset, uint64_t* payload_size);

  /// Corruption unless the cursor is exactly at end-of-file.
  Status ExpectEnd() const;

  uint64_t offset() const { return offset_; }
  const std::string& path() const { return file_->path(); }

 private:
  Status ReadFrameHeader(uint64_t* payload_size);
  /// ReadPodVectorSection's untyped body: `resize(count)` sizes the
  /// destination once the count has been validated and returns where
  /// its count * elem_size bytes go.
  Status ReadPodVectorSectionInto(
      size_t elem_size, const std::function<char*(uint64_t)>& resize);
  /// Reads the `n` payload bytes starting `skip` bytes into the current
  /// section in 64 KiB chunks, extending `*crc` over them and copying
  /// them to `dst` unless it is null.
  Status StreamPayload(uint64_t skip, uint64_t n, uint32_t* crc, char* dst);
  /// Checks the CRC stored after the current section's `length`-byte
  /// payload against `crc`, then moves past the section.
  Status FinishSection(uint64_t length, uint32_t crc);

  const RandomAccessFile* file_;
  uint64_t offset_ = 0;
};

/// Size and whole-file checksum of a just-written artifact; recorded in
/// the MANIFEST and re-verified by LoadIndexes before any codec runs.
struct ArtifactInfo {
  uint64_t size_bytes = 0;
  uint32_t crc32c = 0;
  uint32_t format_version = 0;
};

/// Crash-safe file commit: writes `path + ".tmp"` through `body`, syncs,
/// atomically renames onto `path`, and fsyncs the directory. On any
/// failure the temp file is removed (best effort) and `path` is
/// untouched. A reader that opened `path` before the rename keeps
/// reading the file it opened, never a truncated or half-written one.
Status WriteFileAtomically(FileSystem* fs, const std::string& path,
                           const std::function<Status(WritableFile*)>& body);

/// WriteFileAtomically of one checksummed container: `body` writes the
/// sections after the header. A save interrupted at any point leaves the
/// previous generation intact.
Status WriteArtifactAtomically(
    FileSystem* fs, const std::string& path, uint32_t artifact_magic,
    uint32_t artifact_version,
    const std::function<Status(ChecksummedWriter*)>& body,
    ArtifactInfo* info = nullptr);

/// Streams `path` computing its size and whole-file CRC32C — the
/// MANIFEST verification pass.
Status ChecksumWholeFile(FileSystem* fs, const std::string& path,
                         ArtifactInfo* info);

}  // namespace ksp

#endif  // KSP_COMMON_IO_UTIL_H_
