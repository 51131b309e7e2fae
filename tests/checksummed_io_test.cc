// The checksummed container framing: round trips, corruption detection
// with path+offset errors, bounded allocation on corrupt length prefixes,
// and the atomic-commit helper.

#include "common/io_util.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "common/crc32c.h"

namespace ksp {
namespace {

constexpr uint32_t kTestMagic = 0x54534554u;  // "TEST"

class ChecksummedIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            ("ksp_cio_" + std::string(info->name()) + "_" +
             std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/artifact.bin";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  Status WriteTestArtifact(const std::vector<std::string>& sections,
                           ArtifactInfo* info = nullptr) {
    return WriteArtifactAtomically(
        DefaultFileSystem(), path_, kTestMagic, 3,
        [&sections](ChecksummedWriter* w) -> Status {
          for (const std::string& s : sections) {
            KSP_RETURN_NOT_OK(w->WriteSection(s));
          }
          return Status::OK();
        },
        info);
  }

  std::string ReadFileBytes() {
    std::ifstream in(path_, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

  void WriteFileBytes(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string dir_;
  std::string path_;
};

TEST_F(ChecksummedIoTest, RoundTripsSectionsAndVersion) {
  ArtifactInfo info;
  ASSERT_TRUE(WriteTestArtifact({"hello", "", "world!"}, &info).ok());
  EXPECT_EQ(info.format_version, 3u);
  EXPECT_EQ(info.size_bytes, std::filesystem::file_size(path_));
  EXPECT_EQ(info.crc32c, Crc32c(ReadFileBytes()));

  auto file = DefaultFileSystem()->NewRandomAccessFile(path_);
  ASSERT_TRUE(file.ok());
  ChecksummedReader reader(file->get());
  uint32_t version = 0;
  ASSERT_TRUE(reader.Open(kTestMagic, &version).ok());
  EXPECT_EQ(version, 3u);
  std::string payload;
  ASSERT_TRUE(reader.ReadSection(&payload).ok());
  EXPECT_EQ(payload, "hello");
  ASSERT_TRUE(reader.ReadSection(&payload).ok());
  EXPECT_EQ(payload, "");
  ASSERT_TRUE(reader.ReadSection(&payload).ok());
  EXPECT_EQ(payload, "world!");
  EXPECT_TRUE(reader.ExpectEnd().ok());
}

TEST_F(ChecksummedIoTest, VerifySectionReturnsPayloadRange) {
  ASSERT_TRUE(WriteTestArtifact({"0123456789"}).ok());
  auto file = DefaultFileSystem()->NewRandomAccessFile(path_);
  ASSERT_TRUE(file.ok());
  ChecksummedReader reader(file->get());
  uint32_t version = 0;
  ASSERT_TRUE(reader.Open(kTestMagic, &version).ok());
  uint64_t offset = 0;
  uint64_t size = 0;
  ASSERT_TRUE(reader.VerifySection(&offset, &size).ok());
  EXPECT_EQ(size, 10u);
  std::string raw;
  ASSERT_TRUE((*file)->Read(offset, size, &raw).ok());
  EXPECT_EQ(raw, "0123456789");
  EXPECT_TRUE(reader.ExpectEnd().ok());
}

// A pod-vector section is byte-for-byte a WriteSection over
// AppendPodVector, and reads back through several 64 KiB chunks.
TEST_F(ChecksummedIoTest, PodVectorSectionRoundTripsAcrossChunks) {
  std::vector<uint32_t> values(40000);
  for (uint32_t i = 0; i < values.size(); ++i) values[i] = i * 2654435761u;
  std::string buffered;
  AppendPodVector(&buffered, values);
  ASSERT_TRUE(WriteTestArtifact({buffered}).ok());
  const std::string buffered_file = ReadFileBytes();

  ASSERT_TRUE(WriteArtifactAtomically(
                  DefaultFileSystem(), path_, kTestMagic, 3,
                  [&values](ChecksummedWriter* w) {
                    return w->WritePodVectorSection(values);
                  })
                  .ok());
  EXPECT_EQ(ReadFileBytes(), buffered_file);

  auto file = DefaultFileSystem()->NewRandomAccessFile(path_);
  ASSERT_TRUE(file.ok());
  ChecksummedReader reader(file->get());
  uint32_t version = 0;
  ASSERT_TRUE(reader.Open(kTestMagic, &version).ok());
  std::vector<uint32_t> read;
  ASSERT_TRUE(reader.ReadPodVectorSection(&read).ok());
  EXPECT_EQ(read, values);
  EXPECT_TRUE(reader.ExpectEnd().ok());
}

// The count must account for the whole section, checked before the
// vector is sized; a bad count or a bad CRC leaves the vector empty.
TEST_F(ChecksummedIoTest, PodVectorSectionRejectsBadCountAndCrc) {
  auto read_one = [this](std::vector<uint32_t>* out) {
    auto file = DefaultFileSystem()->NewRandomAccessFile(path_);
    if (!file.ok()) return file.status();
    ChecksummedReader reader(file->get());
    uint32_t version = 0;
    KSP_RETURN_NOT_OK(reader.Open(kTestMagic, &version));
    return reader.ReadPodVectorSection(out);
  };
  std::string payload;
  AppendPod<uint64_t>(&payload, 1ull << 60);  // Count far past the file.
  AppendPod<uint32_t>(&payload, 7);
  const std::string three_values = [] {
    std::string p;
    AppendPodVector(&p, std::vector<uint32_t>{1, 2, 3});
    return p;
  }();
  const std::vector<std::pair<const char*, std::string>> sections = {
      {"huge count", payload},
      {"count one short", three_values.substr(0, three_values.size() - 4)},
      {"ragged element", three_values.substr(0, three_values.size() - 1)},
      {"no count", "1234567"},
  };
  for (const auto& [name, section] : sections) {
    ASSERT_TRUE(WriteTestArtifact({section}).ok());
    std::vector<uint32_t> out{42};
    const Status status = read_one(&out);
    EXPECT_TRUE(status.IsCorruption()) << name << ": " << status.ToString();
    EXPECT_NE(status.message().find(path_), std::string::npos) << name;
    EXPECT_TRUE(out.empty()) << name;
  }

  ASSERT_TRUE(WriteTestArtifact({three_values}).ok());
  std::string bytes = ReadFileBytes();
  bytes[bytes.size() - 6] ^= 0x01;  // Inside the last element.
  WriteFileBytes(bytes);
  std::vector<uint32_t> out;
  const Status status = read_one(&out);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_TRUE(out.empty());
}

TEST_F(ChecksummedIoTest, WrongArtifactMagicRejected) {
  ASSERT_TRUE(WriteTestArtifact({"x"}).ok());
  auto file = DefaultFileSystem()->NewRandomAccessFile(path_);
  ASSERT_TRUE(file.ok());
  ChecksummedReader reader(file->get());
  uint32_t version = 0;
  auto status = reader.Open(kTestMagic + 1, &version);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST_F(ChecksummedIoTest, FlippedPayloadByteIsCorruptionWithPathAndOffset) {
  ASSERT_TRUE(WriteTestArtifact({"some payload bytes"}).ok());
  std::string bytes = ReadFileBytes();
  // Past container magic + header section; inside the payload section.
  const size_t victim = bytes.size() - 6;
  bytes[victim] ^= 0x20;
  WriteFileBytes(bytes);

  auto file = DefaultFileSystem()->NewRandomAccessFile(path_);
  ASSERT_TRUE(file.ok());
  ChecksummedReader reader(file->get());
  uint32_t version = 0;
  ASSERT_TRUE(reader.Open(kTestMagic, &version).ok());
  std::string payload;
  auto status = reader.ReadSection(&payload);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.ToString().find(path_), std::string::npos)
      << "error must carry the file path: " << status.ToString();
}

TEST_F(ChecksummedIoTest, HugeLengthPrefixRejectedBeforeAllocation) {
  ASSERT_TRUE(WriteTestArtifact({"abc"}).ok());
  std::string bytes = ReadFileBytes();
  // The payload section's length prefix sits right after the header
  // section: magic(4) + [len 8][payload 8][crc 4].
  const size_t len_pos = 4 + 8 + 8 + 4;
  for (int i = 0; i < 8; ++i) bytes[len_pos + i] = '\xff';
  WriteFileBytes(bytes);

  auto file = DefaultFileSystem()->NewRandomAccessFile(path_);
  ASSERT_TRUE(file.ok());
  ChecksummedReader reader(file->get());
  uint32_t version = 0;
  ASSERT_TRUE(reader.Open(kTestMagic, &version).ok());
  std::string payload;
  auto status = reader.ReadSection(&payload);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST_F(ChecksummedIoTest, TruncationDetected) {
  ASSERT_TRUE(WriteTestArtifact({"a longer payload for truncation"}).ok());
  std::string bytes = ReadFileBytes();
  for (size_t keep : {bytes.size() - 1, bytes.size() - 5, size_t{30},
                      size_t{24}, size_t{5}, size_t{3}, size_t{0}}) {
    WriteFileBytes(bytes.substr(0, keep));
    auto file = DefaultFileSystem()->NewRandomAccessFile(path_);
    ASSERT_TRUE(file.ok());
    ChecksummedReader reader(file->get());
    uint32_t version = 0;
    Status status = reader.Open(kTestMagic, &version);
    if (keep < 4) {
      // Shorter than the container magic itself.
      EXPECT_TRUE(status.IsCorruption())
          << "keep=" << keep << ": " << status.ToString();
      continue;
    }
    std::string payload;
    if (status.ok()) status = reader.ReadSection(&payload);
    if (status.ok()) status = reader.ExpectEnd();
    EXPECT_TRUE(status.IsCorruption() || status.IsIOError())
        << "keep=" << keep << ": " << status.ToString();
    EXPECT_FALSE(status.ok()) << "keep=" << keep;
  }
}

TEST_F(ChecksummedIoTest, TrailingGarbageRejectedByExpectEnd) {
  ASSERT_TRUE(WriteTestArtifact({"payload"}).ok());
  WriteFileBytes(ReadFileBytes() + "garbage");
  auto file = DefaultFileSystem()->NewRandomAccessFile(path_);
  ASSERT_TRUE(file.ok());
  ChecksummedReader reader(file->get());
  uint32_t version = 0;
  ASSERT_TRUE(reader.Open(kTestMagic, &version).ok());
  std::string payload;
  ASSERT_TRUE(reader.ReadSection(&payload).ok());
  EXPECT_TRUE(reader.ExpectEnd().IsCorruption());
}

TEST_F(ChecksummedIoTest, FailedBodyLeavesNoFileBehind) {
  auto status = WriteArtifactAtomically(
      DefaultFileSystem(), path_, kTestMagic, 1,
      [](ChecksummedWriter* w) {
        KSP_RETURN_NOT_OK(w->WriteSection("partial"));
        return Status::IOError("synthetic body failure");
      });
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(std::filesystem::exists(path_));
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

TEST_F(ChecksummedIoTest, AtomicRewriteReplacesPreviousVersion) {
  ASSERT_TRUE(WriteTestArtifact({"generation one"}).ok());
  ASSERT_TRUE(WriteTestArtifact({"generation two"}).ok());
  auto file = DefaultFileSystem()->NewRandomAccessFile(path_);
  ASSERT_TRUE(file.ok());
  ChecksummedReader reader(file->get());
  uint32_t version = 0;
  ASSERT_TRUE(reader.Open(kTestMagic, &version).ok());
  std::string payload;
  ASSERT_TRUE(reader.ReadSection(&payload).ok());
  EXPECT_EQ(payload, "generation two");
}

TEST_F(ChecksummedIoTest, ChecksumWholeFileMatchesWriterInfo) {
  ArtifactInfo written;
  ASSERT_TRUE(WriteTestArtifact({"abc", "defg"}, &written).ok());
  ArtifactInfo verified;
  ASSERT_TRUE(
      ChecksumWholeFile(DefaultFileSystem(), path_, &verified).ok());
  EXPECT_EQ(verified.size_bytes, written.size_bytes);
  EXPECT_EQ(verified.crc32c, written.crc32c);
}

TEST_F(ChecksummedIoTest, ParsePodVectorRejectsOversizedPrefix) {
  std::string buf;
  AppendPod<uint64_t>(&buf, 1ull << 58);
  buf += "short";
  size_t pos = 0;
  std::vector<uint64_t> v;
  EXPECT_TRUE(ParsePodVector(buf, &pos, &v).IsCorruption());
  EXPECT_TRUE(v.empty());

  // ParsePod past the end is Corruption, not UB.
  pos = buf.size();
  uint32_t x = 0;
  EXPECT_TRUE(ParsePod(buf, &pos, &x).IsCorruption());
}

TEST_F(ChecksummedIoTest, ErrorsCarryPathAndOffset) {
  auto status = CorruptionAt("/some/file.bin", 1234, "boom");
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.ToString().find("/some/file.bin"), std::string::npos);
  EXPECT_NE(status.ToString().find("1234"), std::string::npos);
  auto io = IOErrorAt("/other/file.bin", 99, "eio");
  EXPECT_TRUE(io.IsIOError());
  EXPECT_NE(io.ToString().find("/other/file.bin"), std::string::npos);
  EXPECT_NE(io.ToString().find("99"), std::string::npos);
}

}  // namespace
}  // namespace ksp
