#include "common/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace ksp {

namespace {

std::string ErrnoMessage(const std::string& op, const std::string& path) {
  return op + " failed: " + path + ": " + std::strerror(errno);
}

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(std::FILE* f, std::string path)
      : file_(f), path_(std::move(path)) {}

  ~PosixWritableFile() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  Status Append(std::string_view data) override {
    if (file_ == nullptr) return Status::IOError("file closed: " + path_);
    if (std::fwrite(data.data(), 1, data.size(), file_) != data.size()) {
      return Status::IOError(ErrnoMessage("write", path_));
    }
    return Status::OK();
  }

  Status Sync() override {
    if (file_ == nullptr) return Status::IOError("file closed: " + path_);
    if (std::fflush(file_) != 0) {
      return Status::IOError(ErrnoMessage("fflush", path_));
    }
    if (::fsync(::fileno(file_)) != 0) {
      return Status::IOError(ErrnoMessage("fsync", path_));
    }
    return Status::OK();
  }

  Status Close() override {
    if (file_ == nullptr) return Status::OK();
    std::FILE* f = file_;
    file_ = nullptr;
    if (std::fclose(f) != 0) {
      return Status::IOError(ErrnoMessage("close", path_));
    }
    return Status::OK();
  }

  const std::string& path() const override { return path_; }

 private:
  std::FILE* file_;
  std::string path_;
};

class PosixRandomAccessFile : public RandomAccessFile {
 public:
  PosixRandomAccessFile(int fd, uint64_t size, std::string path)
      : fd_(fd), size_(size), path_(std::move(path)) {}

  ~PosixRandomAccessFile() override { ::close(fd_); }

  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    if (offset >= size_) {
      out->clear();
      return Status::OK();
    }
    n = static_cast<size_t>(
        std::min<uint64_t>(n, size_ - offset));
    // No clear() first: a reused buffer (a recycled buffer-pool frame)
    // that already holds n bytes is not zero-filled before pread
    // overwrites it.
    out->resize(n);
    size_t done = 0;
    while (done < n) {
      ssize_t got = ::pread(fd_, out->data() + done, n - done,
                            static_cast<off_t>(offset + done));
      if (got < 0) {
        if (errno == EINTR) continue;
        out->clear();
        return Status::IOError(ErrnoMessage("pread", path_));
      }
      if (got == 0) break;  // Concurrent truncation; surface a short read.
      done += static_cast<size_t>(got);
    }
    out->resize(done);
    return Status::OK();
  }

  uint64_t Size() const override { return size_; }
  const std::string& path() const override { return path_; }

 private:
  int fd_;
  uint64_t size_;
  std::string path_;
};

class PosixFileSystem : public FileSystem {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      return Status::IOError(ErrnoMessage("open for write", path));
    }
    return std::unique_ptr<WritableFile>(
        new PosixWritableFile(f, path));
  }

  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return Status::IOError(ErrnoMessage("open", path));
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      Status status = Status::IOError(ErrnoMessage("fstat", path));
      ::close(fd);
      return status;
    }
    return std::unique_ptr<RandomAccessFile>(new PosixRandomAccessFile(
        fd, static_cast<uint64_t>(st.st_size), path));
  }

  Status RenameFile(const std::string& from,
                    const std::string& to) override {
    if (std::rename(from.c_str(), to.c_str()) != 0) {
      return Status::IOError(ErrnoMessage("rename to " + to, from));
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (std::remove(path.c_str()) != 0) {
      return Status::IOError(ErrnoMessage("remove", path));
    }
    return Status::OK();
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  Status SyncDir(const std::string& dir) override {
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return Status::IOError(ErrnoMessage("open dir", dir));
    Status status;
    if (::fsync(fd) != 0) {
      status = Status::IOError(ErrnoMessage("fsync dir", dir));
    }
    ::close(fd);
    return status;
  }
};

}  // namespace

FileSystem* DefaultFileSystem() {
  static PosixFileSystem fs;
  return &fs;
}

std::string DirName(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace ksp
