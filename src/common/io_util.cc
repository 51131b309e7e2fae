#include "common/io_util.h"

#include <algorithm>

#include "common/crc32c.h"
#include "common/varint.h"

namespace ksp {

namespace {

std::string OffsetTag(const std::string& path, uint64_t offset) {
  return path + " @" + std::to_string(offset) + ": ";
}

constexpr size_t kStreamChunk = 1 << 16;

}  // namespace

Status IOErrorAt(const std::string& path, uint64_t offset, std::string msg) {
  return Status::IOError(OffsetTag(path, offset) + std::move(msg));
}

Status CorruptionAt(const std::string& path, uint64_t offset,
                    std::string msg) {
  return Status::Corruption(OffsetTag(path, offset) + std::move(msg));
}

Status ChecksummedWriter::RawAppend(std::string_view data) {
  KSP_RETURN_NOT_OK(file_->Append(data));
  file_crc_ = Crc32cExtend(file_crc_, data);
  offset_ += data.size();
  return Status::OK();
}

Status ChecksummedWriter::Start(uint32_t artifact_magic,
                                uint32_t artifact_version) {
  std::string magic;
  PutFixed32(&magic, kChecksummedFileMagic);
  KSP_RETURN_NOT_OK(RawAppend(magic));
  std::string header;
  PutFixed32(&header, artifact_magic);
  PutFixed32(&header, artifact_version);
  return WriteSection(header);
}

Status ChecksummedWriter::WriteSection(std::string_view payload) {
  return WriteSectionParts({payload});
}

Status ChecksummedWriter::WriteSectionParts(
    std::initializer_list<std::string_view> parts) {
  uint64_t length = 0;
  for (std::string_view part : parts) length += part.size();
  std::string frame;
  PutFixed64(&frame, length);
  KSP_RETURN_NOT_OK(RawAppend(frame));
  uint32_t crc = 0;
  for (std::string_view part : parts) {
    KSP_RETURN_NOT_OK(RawAppend(part));
    crc = Crc32cExtend(crc, part);
  }
  frame.clear();
  PutFixed32(&frame, crc);
  return RawAppend(frame);
}

Status ChecksummedReader::ReadFrameHeader(uint64_t* payload_size) {
  const uint64_t file_size = file_->Size();
  if (offset_ > file_size || file_size - offset_ < 8) {
    return CorruptionAt(path(), offset_, "truncated section length");
  }
  std::string frame;
  KSP_RETURN_NOT_OK(file_->Read(offset_, 8, &frame));
  if (frame.size() != 8) {
    return IOErrorAt(path(), offset_, "short read of section length");
  }
  size_t pos = 0;
  uint64_t length = 0;
  KSP_RETURN_NOT_OK(GetFixed64(frame, &pos, &length));
  // Length prefix must leave room for the payload AND its trailing CRC
  // inside the real file — checked before any allocation.
  const uint64_t remaining = file_size - offset_ - 8;
  if (length > remaining || remaining - length < 4) {
    return CorruptionAt(path(), offset_,
                        "section length " + std::to_string(length) +
                            " exceeds remaining file bytes");
  }
  *payload_size = length;
  return Status::OK();
}

Status ChecksummedReader::Open(uint32_t expected_artifact_magic,
                               uint32_t* version) {
  std::string magic_bytes;
  KSP_RETURN_NOT_OK(file_->Read(0, 4, &magic_bytes));
  size_t pos = 0;
  uint32_t magic = 0;
  if (magic_bytes.size() != 4 ||
      !GetFixed32(magic_bytes, &pos, &magic).ok() ||
      magic != kChecksummedFileMagic) {
    return CorruptionAt(path(), 0, "not a checksummed artifact container");
  }
  offset_ = 4;
  std::string header;
  KSP_RETURN_NOT_OK(ReadSection(&header));
  pos = 0;
  uint32_t artifact_magic = 0;
  Status st = GetFixed32(header, &pos, &artifact_magic);
  if (st.ok()) st = GetFixed32(header, &pos, version);
  if (!st.ok() || pos != header.size()) {
    return CorruptionAt(path(), 4, "malformed artifact header section");
  }
  if (artifact_magic != expected_artifact_magic) {
    return CorruptionAt(path(), 4, "artifact magic mismatch");
  }
  return Status::OK();
}

Status ChecksummedReader::ReadSection(std::string* payload) {
  const uint64_t frame_offset = offset_;
  uint64_t length = 0;
  KSP_RETURN_NOT_OK(ReadFrameHeader(&length));
  KSP_RETURN_NOT_OK(
      file_->Read(offset_ + 8, static_cast<size_t>(length), payload));
  if (payload->size() != length) {
    return IOErrorAt(path(), frame_offset, "short read of section payload");
  }
  return FinishSection(length, Crc32c(*payload));
}

Status ChecksummedReader::VerifySection(uint64_t* payload_offset,
                                        uint64_t* payload_size) {
  uint64_t length = 0;
  KSP_RETURN_NOT_OK(ReadFrameHeader(&length));
  uint32_t crc = 0;
  KSP_RETURN_NOT_OK(StreamPayload(0, length, &crc, nullptr));
  *payload_offset = offset_ + 8;
  *payload_size = length;
  return FinishSection(length, crc);
}

Status ChecksummedReader::ReadPodVectorSectionInto(
    size_t elem_size, const std::function<char*(uint64_t)>& resize) {
  uint64_t length = 0;
  KSP_RETURN_NOT_OK(ReadFrameHeader(&length));
  if (length < sizeof(uint64_t)) {
    return CorruptionAt(path(), offset_, "vector section has no count");
  }
  std::string count_bytes;
  KSP_RETURN_NOT_OK(
      file_->Read(offset_ + 8, sizeof(uint64_t), &count_bytes));
  size_t pos = 0;
  uint64_t count = 0;
  if (!ParsePod(count_bytes, &pos, &count).ok()) {
    return IOErrorAt(path(), offset_, "short read of vector count");
  }
  // Checked before `resize`: ReadFrameHeader bounded `length` by the
  // file size, so the allocation is bounded too.
  const uint64_t body = length - sizeof(uint64_t);
  if (body % elem_size != 0 || count != body / elem_size) {
    return CorruptionAt(path(), offset_,
                        "vector count " + std::to_string(count) +
                            " does not match section length " +
                            std::to_string(length));
  }
  uint32_t crc = Crc32c(count_bytes);
  char* dst = resize(count);
  KSP_RETURN_NOT_OK(StreamPayload(sizeof(uint64_t), body, &crc, dst));
  return FinishSection(length, crc);
}

Status ChecksummedReader::StreamPayload(uint64_t skip, uint64_t n,
                                        uint32_t* crc, char* dst) {
  std::string chunk;
  for (uint64_t done = 0; done < n;) {
    const size_t want =
        static_cast<size_t>(std::min<uint64_t>(kStreamChunk, n - done));
    KSP_RETURN_NOT_OK(file_->Read(offset_ + 8 + skip + done, want, &chunk));
    if (chunk.size() != want) {
      return IOErrorAt(path(), offset_, "short read of section payload");
    }
    *crc = Crc32cExtend(*crc, chunk);
    if (dst != nullptr) std::memcpy(dst + done, chunk.data(), want);
    done += want;
  }
  return Status::OK();
}

Status ChecksummedReader::FinishSection(uint64_t length, uint32_t crc) {
  std::string crc_bytes;
  KSP_RETURN_NOT_OK(file_->Read(offset_ + 8 + length, 4, &crc_bytes));
  size_t pos = 0;
  uint32_t stored_crc = 0;
  if (crc_bytes.size() != 4 ||
      !GetFixed32(crc_bytes, &pos, &stored_crc).ok()) {
    return CorruptionAt(path(), offset_ + 8 + length,
                        "truncated section checksum");
  }
  if (stored_crc != crc) {
    return CorruptionAt(path(), offset_, "section checksum mismatch");
  }
  offset_ += 8 + length + 4;
  return Status::OK();
}

Status ChecksummedReader::ExpectEnd() const {
  if (offset_ != file_->Size()) {
    return CorruptionAt(path(), offset_,
                        "trailing bytes after final section");
  }
  return Status::OK();
}

Status WriteFileAtomically(
    FileSystem* fs, const std::string& path,
    const std::function<Status(WritableFile*)>& body) {
  const std::string tmp = path + ".tmp";
  auto file = fs->NewWritableFile(tmp);
  if (!file.ok()) return file.status();
  Status st = body(file->get());
  if (st.ok()) st = (*file)->Sync();
  Status close_st = (*file)->Close();
  if (st.ok()) st = close_st;
  if (st.ok()) st = fs->RenameFile(tmp, path);
  if (!st.ok()) {
    fs->RemoveFile(tmp);  // Best effort; `path` is untouched either way.
    return st;
  }
  return fs->SyncDir(DirName(path));
}

Status WriteArtifactAtomically(
    FileSystem* fs, const std::string& path, uint32_t artifact_magic,
    uint32_t artifact_version,
    const std::function<Status(ChecksummedWriter*)>& body,
    ArtifactInfo* info) {
  ArtifactInfo written;
  KSP_RETURN_NOT_OK(WriteFileAtomically(fs, path, [&](WritableFile* file) {
    ChecksummedWriter writer(file);
    KSP_RETURN_NOT_OK(writer.Start(artifact_magic, artifact_version));
    KSP_RETURN_NOT_OK(body(&writer));
    written.size_bytes = writer.bytes_written();
    written.crc32c = writer.file_crc();
    written.format_version = artifact_version;
    return Status::OK();
  }));
  if (info != nullptr) *info = written;
  return Status::OK();
}

Status ChecksumWholeFile(FileSystem* fs, const std::string& path,
                         ArtifactInfo* info) {
  auto file = fs->NewRandomAccessFile(path);
  if (!file.ok()) return file.status();
  const uint64_t size = (*file)->Size();
  uint32_t crc = 0;
  std::string chunk;
  for (uint64_t done = 0; done < size;) {
    const size_t want = static_cast<size_t>(
        std::min<uint64_t>(kStreamChunk, size - done));
    KSP_RETURN_NOT_OK((*file)->Read(done, want, &chunk));
    if (chunk.size() != want) {
      return IOErrorAt(path, done, "short read while checksumming");
    }
    crc = Crc32cExtend(crc, chunk);
    done += want;
  }
  info->size_bytes = size;
  info->crc32c = crc;
  return Status::OK();
}

}  // namespace ksp
