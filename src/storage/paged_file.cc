#include "storage/paged_file.h"

namespace ksp {

Result<std::unique_ptr<PagedFileWriter>> PagedFileWriter::Create(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot create: " + path);
  auto writer = std::unique_ptr<PagedFileWriter>(new PagedFileWriter());
  writer->file_ = f;
  return writer;
}

PagedFileWriter::~PagedFileWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status PagedFileWriter::Append(std::string_view data) {
  if (file_ == nullptr) return Status::InvalidArgument("writer closed");
  if (std::fwrite(data.data(), 1, data.size(), file_) != data.size()) {
    return Status::IOError("short write");
  }
  offset_ += data.size();
  return Status::OK();
}

Status PagedFileWriter::Close() {
  if (file_ == nullptr) return Status::OK();
  int rc = std::fclose(file_);
  file_ = nullptr;
  return rc == 0 ? Status::OK() : Status::IOError("close failed");
}

}  // namespace ksp
