// Randomized corruption matrix: for every persisted artifact format, ≥64
// deterministic bit-flip and truncation variants must each yield a clean
// Status::Corruption / Status::IOError — never a crash, an unbounded
// allocation, or a silently loaded index (the CI sanitizer job runs this
// under ASan/UBSan to catch the "crash" half of that claim).

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <string>

#include "alpha/alpha_index.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/varint.h"
#include "core/database.h"
#include "datagen/synthetic.h"
#include "rdf/kb_io.h"
#include "reach/reachability_index.h"
#include "spatial/paged_rtree.h"
#include "spatial/rtree.h"
#include "storage/shared_buffer_pool.h"
#include "text/inverted_index.h"

namespace ksp {
namespace {

constexpr int kBitFlipVariants = 48;
constexpr int kTruncationVariants = 16;

class CorruptionMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto kb = GenerateKnowledgeBase(SyntheticProfile::DBpediaLike(400));
    ASSERT_TRUE(kb.ok());
    kb_ = std::move(*kb);
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            ("ksp_corrupt_" + std::string(info->name()) + "_" +
             std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    db_ = std::make_unique<KspDatabase>(kb_.get());
    db_->PrepareAll(2);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static std::string ReadFileBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

  static void WriteFileBytes(const std::string& path,
                             const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Runs the ≥64-variant matrix over one saved artifact. `load` returns
  /// the load status; every variant must FAIL, cleanly.
  void RunMatrix(const std::string& path,
                 const std::function<Status(const std::string&)>& load,
                 uint64_t seed) {
    const std::string pristine = ReadFileBytes(path);
    ASSERT_FALSE(pristine.empty());
    ASSERT_TRUE(load(path).ok()) << "pristine file must load";
    Rng rng(seed);
    int failures = 0;

    for (int i = 0; i < kBitFlipVariants; ++i) {
      std::string copy = pristine;
      const size_t byte = rng.NextBounded(copy.size());
      const int bit = static_cast<int>(rng.NextBounded(8));
      copy[byte] ^= static_cast<char>(1u << bit);
      WriteFileBytes(path, copy);
      Status st = load(path);
      EXPECT_FALSE(st.ok()) << path << ": flip byte " << byte << " bit "
                            << bit << " was not detected";
      if (!st.ok()) {
        ++failures;
        EXPECT_TRUE(st.IsCorruption() || st.IsIOError())
            << path << ": flip byte " << byte << " bit " << bit
            << " yielded unclean error: " << st.ToString();
      }
    }

    for (int i = 0; i < kTruncationVariants; ++i) {
      const size_t keep = rng.NextBounded(pristine.size());
      WriteFileBytes(path, pristine.substr(0, keep));
      Status st = load(path);
      EXPECT_FALSE(st.ok())
          << path << ": truncation to " << keep << " was not detected";
      if (!st.ok()) {
        ++failures;
        EXPECT_TRUE(st.IsCorruption() || st.IsIOError())
            << path << ": truncation to " << keep
            << " yielded unclean error: " << st.ToString();
      }
    }

    EXPECT_EQ(failures, kBitFlipVariants + kTruncationVariants);
    WriteFileBytes(path, pristine);  // Restore for any later matrix.
  }

  std::unique_ptr<KnowledgeBase> kb_;
  std::unique_ptr<KspDatabase> db_;
  std::string dir_;
};

TEST_F(CorruptionMatrixTest, RTreeArtifact) {
  const std::string path = dir_ + "/rtree.bin";
  ASSERT_TRUE(db_->rtree().Save(path).ok());
  RunMatrix(
      path,
      [](const std::string& p) { return RTree::Load(p).status(); },
      /*seed=*/101);
}

TEST_F(CorruptionMatrixTest, ReachabilityArtifact) {
  const std::string path = dir_ + "/reach.bin";
  ASSERT_TRUE(db_->reachability_index()->Save(path).ok());
  RunMatrix(
      path,
      [](const std::string& p) {
        return ReachabilityIndex::Load(p).status();
      },
      /*seed=*/202);
}

TEST_F(CorruptionMatrixTest, AlphaArtifact) {
  const std::string path = dir_ + "/alpha.bin";
  ASSERT_TRUE(db_->alpha_index()->Save(path).ok());
  RunMatrix(
      path,
      [](const std::string& p) { return AlphaIndex::Load(p).status(); },
      /*seed=*/303);
}

TEST_F(CorruptionMatrixTest, KnowledgeBaseSnapshot) {
  const std::string path = dir_ + "/kb.bin";
  ASSERT_TRUE(SaveKnowledgeBase(*kb_, path).ok());
  RunMatrix(
      path,
      [](const std::string& p) {
        return LoadKnowledgeBaseSnapshot(p).status();
      },
      /*seed=*/404);
}

TEST_F(CorruptionMatrixTest, DiskInvertedIndex) {
  const std::string path = dir_ + "/inverted.bin";
  ASSERT_TRUE(
      DiskInvertedIndex::Write(kb_->inverted_index(), path).ok());
  RunMatrix(
      path,
      [](const std::string& p) {
        auto index = DiskInvertedIndex::Open(p);
        if (!index.ok()) return index.status();
        // The blob was CRC-verified at Open; reads must stay in bounds
        // regardless.
        std::vector<VertexId> out;
        for (TermId t = 0; t < (*index)->NumTerms(); ++t) {
          out.clear();
          KSP_RETURN_NOT_OK((*index)->GetPostings(t, &out));
        }
        return Status::OK();
      },
      /*seed=*/505);
}

TEST_F(CorruptionMatrixTest, PagedRTreeArtifact) {
  const std::string path = dir_ + "/paged_rtree.bin";
  ASSERT_TRUE(PagedRTree::Write(db_->rtree(), path).ok());
  RunMatrix(
      path,
      [](const std::string& p) {
        // Open CRC-verifies every section; a clean open must then be able
        // to sweep every node slot through the buffer pool.
        SharedBufferPool pool(/*budget_bytes=*/4 << 20, /*page_size=*/4096);
        auto tree = PagedRTree::Open(p, &pool);
        if (!tree.ok()) return tree.status();
        SpatialCursor cursor;
        SpatialNodeRef node;
        for (size_t id = 0; id < (*tree)->num_nodes(); ++id) {
          KSP_RETURN_NOT_OK(
              (*tree)->ReadNode(static_cast<uint32_t>(id), &cursor, &node));
        }
        return Status::OK();
      },
      /*seed=*/1111);
}

// The CRC-free v1 layout is no longer read: a file that opens with a
// codec's v1 header (its artifact magic, then version 1) fails the
// container-magic check with Corruption naming the path.
TEST_F(CorruptionMatrixTest, LegacyV1FilesAreCorruption) {
  struct Codec {
    const char* name;
    uint32_t v1_magic;
    std::function<Status(const std::string&)> load;
  };
  const Codec codecs[] = {
      {"rtree", 0x4B535254u,  // "KSRT"
       [](const std::string& p) { return RTree::Load(p).status(); }},
      {"reach", 0x4B535052u,  // "KSPR"
       [](const std::string& p) {
         return ReachabilityIndex::Load(p).status();
       }},
      {"alpha", 0x4B535041u,  // "KSPA"
       [](const std::string& p) { return AlphaIndex::Load(p).status(); }},
      {"kb", 0x4B53504Bu,  // "KSPK"
       [](const std::string& p) {
         return LoadKnowledgeBaseSnapshot(p).status();
       }},
      {"inverted", 0x4B535049u,  // "KSPI"
       [](const std::string& p) {
         return DiskInvertedIndex::Open(p).status();
       }},
  };
  for (const Codec& codec : codecs) {
    const std::string path = dir_ + "/" + codec.name + "_v1.bin";
    std::string bytes;
    PutFixed32(&bytes, codec.v1_magic);
    PutFixed32(&bytes, 1);
    bytes.append(64, '\0');  // Stand-in for the v1 payload.
    WriteFileBytes(path, bytes);
    const Status st = codec.load(path);
    EXPECT_TRUE(st.IsCorruption()) << codec.name << ": " << st.ToString();
    EXPECT_NE(st.message().find(path), std::string::npos) << st.ToString();
  }
}

}  // namespace
}  // namespace ksp
