#ifndef KSP_STORAGE_PAGED_FILE_H_
#define KSP_STORAGE_PAGED_FILE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace ksp {

/// Sequentially writes a paged file, the unit of IO for the
/// disk-resident graph (§3 footnote 1 / §8 of the paper). Page
/// boundaries are the reader's concern: the shared buffer pool splits
/// the file into fixed-size pages, the last of which may be short.
class PagedFileWriter {
 public:
  static Result<std::unique_ptr<PagedFileWriter>> Create(
      const std::string& path);

  ~PagedFileWriter();

  PagedFileWriter(const PagedFileWriter&) = delete;
  PagedFileWriter& operator=(const PagedFileWriter&) = delete;

  /// Appends raw bytes.
  Status Append(std::string_view data);

  /// Current byte offset (== bytes appended).
  uint64_t offset() const { return offset_; }

  Status Close();

 private:
  PagedFileWriter() = default;

  std::FILE* file_ = nullptr;
  uint64_t offset_ = 0;
};

}  // namespace ksp

#endif  // KSP_STORAGE_PAGED_FILE_H_
