// Randomized corruption matrix: for every persisted artifact format, ≥64
// deterministic bit-flip and truncation variants must each yield a clean
// Status::Corruption / Status::IOError — never a crash, an unbounded
// allocation, or a silently loaded index (the CI sanitizer job runs this
// under ASan/UBSan to catch the "crash" half of that claim). A CRC cannot
// catch a file written with a bad CSR, so the α and reachability codecs
// also get CRC-valid files with one CSR defect each.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "alpha/alpha_index.h"
#include "common/io_util.h"
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

/// The arrays of an α file in format v3, written CRC-valid whatever
/// they hold, so a test can hand AlphaIndex::Load any CSR.
struct AlphaArrays {
  uint32_t alpha = 2;
  uint32_t num_places = 4;
  uint32_t num_nodes = 2;
  std::vector<uint64_t> offsets;
  std::vector<uint32_t> entries;
  std::vector<uint8_t> distances;

  Status Write(const std::string& path) const {
    return WriteArtifactAtomically(
        DefaultFileSystem(), path, /*"KSPA"*/ 0x4B535041u, /*version=*/3,
        [this](ChecksummedWriter* w) -> Status {
          std::string meta;
          AppendPod(&meta, alpha);
          AppendPod(&meta, num_places);
          AppendPod(&meta, num_nodes);
          KSP_RETURN_NOT_OK(w->WriteSection(meta));
          KSP_RETURN_NOT_OK(w->WritePodVectorSection(offsets));
          KSP_RETURN_NOT_OK(w->WritePodVectorSection(entries));
          return w->WritePodVectorSection(distances);
        });
  }
};

/// The arrays of a reachability file (format v2), written CRC-valid.
struct ReachArrays {
  uint32_t num_base_vertices = 2;
  uint32_t num_terms = 1;
  std::vector<uint32_t> component_of;
  std::vector<uint32_t> out_labels;
  std::vector<uint32_t> in_labels;
  std::vector<uint64_t> out_offsets;
  std::vector<uint64_t> in_offsets;

  Status Write(const std::string& path) const {
    return WriteArtifactAtomically(
        DefaultFileSystem(), path, /*"KSPR"*/ 0x4B535052u, /*version=*/2,
        [this](ChecksummedWriter* w) -> Status {
          std::string meta;
          AppendPod(&meta, num_base_vertices);
          AppendPod(&meta, num_terms);
          KSP_RETURN_NOT_OK(w->WriteSection(meta));
          for (const auto* v : {&component_of, &out_labels, &in_labels}) {
            KSP_RETURN_NOT_OK(w->WritePodVectorSection(*v));
          }
          for (const auto* v : {&out_offsets, &in_offsets}) {
            KSP_RETURN_NOT_OK(w->WritePodVectorSection(*v));
          }
          return Status::OK();
        });
  }
};

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

// Every CSR defect of a CRC-valid α file is Corruption naming the path.
// Unchecked, offsets {0, 2, 1, 2} would load, TermPostings(1) would be
// 2^64 - 1 long and EntryTermDistance(5, 1) would read out of bounds.
TEST_F(CorruptionMatrixTest, AlphaCsrDefectsAreCorruption) {
  const std::string path = dir_ + "/alpha_csr.bin";
  // Three terms over 4 places + 2 nodes at α = 2: term 0 at entries 1 and
  // 4, term 1 empty, term 2 at entry 5.
  AlphaArrays valid;
  valid.offsets = {0, 2, 2, 3};
  valid.entries = {1, 4, 5};
  valid.distances = {0, 2, 1};
  ASSERT_TRUE(valid.Write(path).ok());
  auto loaded = AlphaIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_terms(), 3u);
  EXPECT_EQ(loaded->TermPostings(0).size(), 2u);
  EXPECT_EQ(loaded->EntryTermDistance(4, 0), 2u);
  EXPECT_EQ(loaded->EntryTermDistance(5, 2), 1u);
  EXPECT_FALSE(loaded->EntryTermDistance(5, 1).has_value());

  struct Defect {
    const char* name;
    AlphaArrays arrays;
  };
  std::vector<Defect> defects;
  auto add = [&](const char* name, auto mutate) {
    AlphaArrays arrays = valid;
    mutate(&arrays);
    defects.push_back({name, std::move(arrays)});
  };
  add("no offsets", [](AlphaArrays* a) {
    a->offsets.clear();
    a->entries.clear();
    a->distances.clear();
  });
  add("offsets start above 0", [](AlphaArrays* a) { a->offsets[0] = 1; });
  add("offsets decrease", [](AlphaArrays* a) {
    a->offsets = {0, 2, 1, 2};
    a->entries = {1, 4};
    a->distances = {0, 2};
  });
  add("last offset short of the posting count",
      [](AlphaArrays* a) { a->offsets = {0, 2, 2, 2}; });
  add("last offset past the posting count",
      [](AlphaArrays* a) { a->offsets = {0, 2, 2, 4}; });
  add("fewer distances than entries",
      [](AlphaArrays* a) { a->distances.pop_back(); });
  add("more distances than entries",
      [](AlphaArrays* a) { a->distances.push_back(0); });
  add("repeated entry in a term",
      [](AlphaArrays* a) { a->entries = {4, 4, 5}; });
  add("descending entries in a term",
      [](AlphaArrays* a) { a->entries = {4, 1, 5}; });
  add("entry id past the last node",
      [](AlphaArrays* a) { a->entries = {1, 4, 6}; });
  add("distance above alpha", [](AlphaArrays* a) { a->distances[1] = 3; });

  for (const Defect& defect : defects) {
    ASSERT_TRUE(defect.arrays.Write(path).ok()) << defect.name;
    auto status = AlphaIndex::Load(path).status();
    EXPECT_TRUE(status.IsCorruption()) << defect.name << ": "
                                       << status.ToString();
    EXPECT_NE(status.message().find(path), std::string::npos)
        << defect.name << ": " << status.ToString();
  }
}

// Every CSR defect of a CRC-valid reachability file is Corruption naming
// the path. Unchecked, an empty component map would load and
// Reaches(1, 0) would read out of bounds.
TEST_F(CorruptionMatrixTest, ReachabilityCsrDefectsAreCorruption) {
  const std::string path = dir_ + "/reach_csr.bin";
  // Vertices 0 and 1 and term vertex 2, one component each; vertex 1
  // reaches the term (hub rank 1 labels both), vertex 0 does not.
  ReachArrays valid;
  valid.component_of = {0, 1, 2};
  valid.out_labels = {0, 1, 2};
  valid.out_offsets = {0, 1, 2, 3};
  valid.in_labels = {0, 1, 1, 2};
  valid.in_offsets = {0, 1, 2, 4};
  ASSERT_TRUE(valid.Write(path).ok());
  auto loaded = ReachabilityIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->Reaches(1, 0));
  EXPECT_FALSE(loaded->Reaches(0, 0));

  struct Defect {
    const char* name;
    ReachArrays arrays;
  };
  std::vector<Defect> defects;
  auto add = [&](const char* name, auto mutate) {
    ReachArrays arrays = valid;
    mutate(&arrays);
    defects.push_back({name, std::move(arrays)});
  };
  add("empty component map",
      [](ReachArrays* r) { r->component_of.clear(); });
  add("component map short of the term vertices",
      [](ReachArrays* r) { r->component_of.pop_back(); });
  add("component id out of range",
      [](ReachArrays* r) { r->component_of[2] = 3; });
  add("no offsets", [](ReachArrays* r) {
    r->out_offsets.clear();
    r->in_offsets.clear();
  });
  add("offset arrays of different component counts",
      [](ReachArrays* r) { r->in_offsets = {0, 1, 4}; });
  add("out offsets start above 0",
      [](ReachArrays* r) { r->out_offsets[0] = 1; });
  add("in offsets decrease",
      [](ReachArrays* r) { r->in_offsets = {0, 2, 1, 4}; });
  add("out offsets short of the label count",
      [](ReachArrays* r) { r->out_offsets = {0, 1, 2, 2}; });
  add("in offsets past the label count",
      [](ReachArrays* r) { r->in_offsets = {0, 1, 2, 5}; });
  add("out label out of range",
      [](ReachArrays* r) { r->out_labels[1] = 3; });
  add("in label out of range", [](ReachArrays* r) { r->in_labels[3] = 3; });

  for (const Defect& defect : defects) {
    ASSERT_TRUE(defect.arrays.Write(path).ok()) << defect.name;
    auto status = ReachabilityIndex::Load(path).status();
    EXPECT_TRUE(status.IsCorruption()) << defect.name << ": "
                                       << status.ToString();
    EXPECT_NE(status.message().find(path), std::string::npos)
        << defect.name << ": " << status.ToString();
  }
}

}  // namespace
}  // namespace ksp
