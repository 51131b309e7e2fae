// Database-level index persistence: PrepareAll -> SaveIndexes ->
// LoadIndexes must answer every query identically with no rebuild.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "common/io_util.h"
#include "common/varint.h"
#include "core/database.h"
#include "core/executor.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"

namespace ksp {
namespace {

/// Abbey (a place) -> Town; `harbour` adds a document term to Town.
/// Both variants share the first vertices and their terms, so a term
/// has the same id in each.
Result<std::unique_ptr<KnowledgeBase>> AbbeyKb(bool harbour) {
  KnowledgeBaseBuilder builder;
  const VertexId abbey = builder.AddEntity("http://example.org/Abbey");
  const VertexId town = builder.AddEntity("http://example.org/Town");
  builder.SetLocation(abbey, Point{4.6, 43.7});
  builder.AddRelation(abbey, town, "http://example.org/nearTo");
  if (harbour) builder.AddDocumentTerm(town, "harbour");
  return builder.Finish();
}

class EnginePersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto kb = GenerateKnowledgeBase(SyntheticProfile::DBpediaLike(1500));
    ASSERT_TRUE(kb.ok());
    kb_ = std::move(*kb);
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            ("ksp_engine_idx_" + std::string(info->name()) + "_" +
             std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<KnowledgeBase> kb_;
  std::string dir_;
};

TEST_F(EnginePersistenceTest, SaveLoadRoundTripAnswersIdentically) {
  KspDatabase original(kb_.get());
  original.PrepareAll(2);
  ASSERT_TRUE(original.SaveIndexes(dir_).ok());

  KspDatabase restored(kb_.get());
  ASSERT_TRUE(restored.LoadIndexes(dir_).ok());
  ASSERT_NE(restored.alpha_index(), nullptr);
  ASSERT_NE(restored.reachability_index(), nullptr);
  EXPECT_EQ(restored.rtree().size(), kb_->num_places());
  EXPECT_EQ(restored.alpha_index()->alpha(), 2u);

  QueryGenOptions qopt;
  qopt.num_keywords = 4;
  qopt.k = 5;
  auto queries = GenerateQueries(*kb_, QueryClass::kOriginal, qopt, 5);
  ASSERT_FALSE(queries.empty());
  QueryExecutor original_exec(&original);
  QueryExecutor restored_exec(&restored);
  for (const auto& q : queries) {
    for (auto exec : {&QueryExecutor::ExecuteBsp, &QueryExecutor::ExecuteSpp,
                      &QueryExecutor::ExecuteSp, &QueryExecutor::ExecuteTa}) {
      auto a = (original_exec.*exec)(q, nullptr);
      auto b = (restored_exec.*exec)(q, nullptr);
      ASSERT_TRUE(a.ok() && b.ok());
      ASSERT_EQ(a->entries.size(), b->entries.size());
      for (size_t i = 0; i < a->entries.size(); ++i) {
        EXPECT_DOUBLE_EQ(a->entries[i].score, b->entries[i].score);
        EXPECT_EQ(a->entries[i].place, b->entries[i].place);
      }
    }
  }
}

TEST_F(EnginePersistenceTest, MissingFilesLeaveIndexesUnbuilt) {
  // A directory without a MANIFEST — empty, missing, or holding only a
  // loose pre-manifest rtree.bin — is an IOError naming the directory,
  // and a prepared database keeps none of its previous indexes.
  const std::string empty = dir_ + "/empty";
  const std::string loose = dir_ + "/loose";
  std::filesystem::create_directories(empty);
  std::filesystem::create_directories(loose);
  {
    KspDatabase built(kb_.get());
    built.BuildRTree();
    ASSERT_TRUE(built.rtree().Save(loose + "/rtree.bin").ok());
  }
  for (const std::string& dir : {empty, dir_ + "/missing", loose}) {
    KspDatabase db(kb_.get());
    db.PrepareAll(2);
    auto status = db.LoadIndexes(dir);
    EXPECT_TRUE(status.IsIOError()) << dir << ": " << status.ToString();
    EXPECT_NE(status.message().find(dir), std::string::npos)
        << status.ToString();
    EXPECT_FALSE(db.has_rtree()) << dir;
    EXPECT_EQ(db.reachability_index(), nullptr) << dir;
    EXPECT_EQ(db.alpha_index(), nullptr) << dir;
    EXPECT_EQ(db.index_generation(), 0u) << dir;
  }
}

TEST_F(EnginePersistenceTest, PartialSaveLoads) {
  KspDatabase original(kb_.get());
  original.BuildRTree();
  original.BuildReachabilityIndex();  // No alpha index.
  ASSERT_TRUE(original.SaveIndexes(dir_).ok());

  KspDatabase restored(kb_.get());
  ASSERT_TRUE(restored.LoadIndexes(dir_).ok());
  EXPECT_NE(restored.reachability_index(), nullptr);
  EXPECT_EQ(restored.alpha_index(), nullptr);
  // SPP works (needs reach), SP correctly demands the alpha index.
  QueryGenOptions qopt;
  qopt.num_keywords = 3;
  auto queries = GenerateQueries(*kb_, QueryClass::kOriginal, qopt, 1);
  ASSERT_FALSE(queries.empty());
  QueryExecutor executor(&restored);
  EXPECT_TRUE(executor.ExecuteSpp(queries[0]).ok());
  EXPECT_FALSE(executor.ExecuteSp(queries[0]).ok());
}

TEST_F(EnginePersistenceTest, MissingArtifactFromManifestIsIOError) {
  // A manifest whose artifact vanished (partially copied directory) must
  // fail the whole load and leave the database fully unprepared.
  KspDatabase original(kb_.get());
  original.PrepareAll(2);
  ASSERT_TRUE(original.SaveIndexes(dir_).ok());
  std::filesystem::remove(dir_ + "/rtree-000001.bin");

  KspDatabase restored(kb_.get());
  auto status = restored.LoadIndexes(dir_);
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  EXPECT_FALSE(restored.has_rtree());
  EXPECT_EQ(restored.reachability_index(), nullptr);
  EXPECT_EQ(restored.alpha_index(), nullptr);

  // Queries on the unprepared database fail cleanly.
  QueryGenOptions qopt;
  qopt.num_keywords = 3;
  auto queries = GenerateQueries(*kb_, QueryClass::kOriginal, qopt, 1);
  ASSERT_FALSE(queries.empty());
  QueryExecutor executor(&restored);
  auto result = executor.ExecuteSp(queries[0]);
  EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status().ToString();
}

TEST_F(EnginePersistenceTest, StaleManifestIsCorruption) {
  // An artifact swapped out from under its manifest (size/checksum
  // mismatch) must be rejected before any index is loaded.
  KspDatabase original(kb_.get());
  original.PrepareAll(2);
  ASSERT_TRUE(original.SaveIndexes(dir_).ok());
  {
    // Same size, different bytes: flip one payload byte in place.
    std::fstream f(dir_ + "/reach-000001.bin",
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(64);
    char b = 0;
    f.get(b);
    f.seekp(64);
    f.put(static_cast<char>(b ^ 0x01));
  }

  KspDatabase restored(kb_.get());
  auto status = restored.LoadIndexes(dir_);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_FALSE(restored.has_rtree());
  EXPECT_EQ(restored.reachability_index(), nullptr);
  EXPECT_EQ(restored.alpha_index(), nullptr);
}

TEST_F(EnginePersistenceTest, SecondSaveAdvancesGenerationAndCollectsOld) {
  KspDatabase db(kb_.get());
  db.PrepareAll(2);
  ASSERT_TRUE(db.SaveIndexes(dir_).ok());
  ASSERT_TRUE(std::filesystem::exists(dir_ + "/rtree-000001.bin"));
  ASSERT_TRUE(db.SaveIndexes(dir_).ok());
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/rtree-000002.bin"));
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/rtree-000001.bin"));

  KspDatabase restored(kb_.get());
  ASSERT_TRUE(restored.LoadIndexes(dir_).ok());
  EXPECT_TRUE(restored.has_rtree());
  EXPECT_NE(restored.alpha_index(), nullptr);
}

TEST_F(EnginePersistenceTest, AlphaWithoutItsRTreeRejected) {
  // α entries are keyed by R-tree node ids; a MANIFEST that lists the α
  // file without the tree it was built against must fail loudly with
  // InvalidArgument, not misalign.
  KspDatabase original(kb_.get());
  original.PrepareAll(2);
  const std::string alpha_file = "alpha-000001.bin";
  ArtifactInfo alpha;
  ASSERT_TRUE(original.alpha_index()
                  ->Save(dir_ + "/" + alpha_file, nullptr, &alpha)
                  .ok());
  // MANIFEST layout (DESIGN.md §6): generation, entry count, then per
  // entry its name, filename, format version, size and crc32c.
  constexpr uint32_t kManifestMagic = 0x4B53504Du;  // "KSPM"
  ASSERT_TRUE(WriteArtifactAtomically(
                  DefaultFileSystem(), dir_ + "/MANIFEST", kManifestMagic,
                  /*artifact_version=*/1,
                  [&](ChecksummedWriter* w) {
                    std::string body;
                    PutVarint64(&body, 1);
                    PutVarint64(&body, 1);
                    PutLengthPrefixed(&body, "alpha");
                    PutLengthPrefixed(&body, alpha_file);
                    PutFixed32(&body, alpha.format_version);
                    PutFixed64(&body, alpha.size_bytes);
                    PutFixed32(&body, alpha.crc32c);
                    return w->WriteSection(body);
                  })
                  .ok());
  KspDatabase restored(kb_.get());
  auto status = restored.LoadIndexes(dir_);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_EQ(restored.alpha_index(), nullptr);
}

// An α file lists every term of the vocabulary it was built over. Loaded
// beside a KB that has since gained a term, that term would read as
// α + 1 at every entry and prune places that hold it: refused.
TEST_F(EnginePersistenceTest, AlphaOverAnotherVocabularyRejected) {
  // Two KBs with the same vertices and place; the second has one more
  // document term.
  auto saved_kb = AbbeyKb(/*harbour=*/false);
  auto grown_kb = AbbeyKb(/*harbour=*/true);
  ASSERT_TRUE(saved_kb.ok() && grown_kb.ok());
  ASSERT_EQ((*saved_kb)->num_vertices(), (*grown_kb)->num_vertices());
  ASSERT_EQ((*saved_kb)->num_terms() + 1, (*grown_kb)->num_terms());

  KspDatabase original(saved_kb->get());
  original.BuildRTree();
  original.BuildAlphaIndex(2);
  ASSERT_TRUE(original.SaveIndexes(dir_).ok());
  KspDatabase restored(grown_kb->get());
  auto status = restored.LoadIndexes(dir_);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.message().find("terms"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(restored.alpha_index(), nullptr);
  EXPECT_FALSE(restored.has_rtree());
}

// The reachability labels hold a vertex for every term of the
// vocabulary they were built over, and Reaches is false past it. Loaded
// beside a KB that has since gained a term, Rule 1 would prune every
// place that holds it: refused, like the α file.
TEST_F(EnginePersistenceTest, ReachabilityOverAnotherVocabularyRejected) {
  auto saved_kb = AbbeyKb(/*harbour=*/false);
  auto grown_kb = AbbeyKb(/*harbour=*/true);
  ASSERT_TRUE(saved_kb.ok() && grown_kb.ok());
  ASSERT_EQ((*saved_kb)->num_vertices(), (*grown_kb)->num_vertices());
  ASSERT_EQ((*saved_kb)->num_terms() + 1, (*grown_kb)->num_terms());

  KspDatabase original(saved_kb->get());
  original.BuildRTree();
  original.BuildReachabilityIndex();
  ASSERT_TRUE(original.SaveIndexes(dir_).ok());
  KspDatabase restored(grown_kb->get());
  auto status = restored.LoadIndexes(dir_);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  const std::string counts =
      "covers " + std::to_string((*saved_kb)->num_terms()) +
      " terms, the KB has " + std::to_string((*grown_kb)->num_terms());
  EXPECT_NE(status.message().find(counts), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find(dir_), std::string::npos)
      << status.ToString();
  EXPECT_EQ(restored.reachability_index(), nullptr);
  EXPECT_FALSE(restored.has_rtree());
}

// Posting ids index the executor's per-vertex arrays, and the disk
// backend decodes them with no range check. A spilled postings page
// damaged after the database opened (and CRC-checked) the file lists a
// vertex this KB does not have: every algorithm answers Corruption
// before it sets a keyword bit, and the executor stays exact.
TEST_F(EnginePersistenceTest, OutOfRangeSpilledPostingIsCorruption) {
  auto kb = AbbeyKb(/*harbour=*/false);
  ASSERT_TRUE(kb.ok());
  ASSERT_EQ((*kb)->num_vertices(), 2u);
  KspOptions options;
  options.backend = StorageBackend::kDisk;
  options.spill_directory = dir_ + "/spill";
  KspDatabase db(kb->get(), options);
  db.PrepareAll(2);
  ASSERT_TRUE(db.storage_backend_status().ok())
      << db.storage_backend_status().ToString();
  const Point here{4.6, 43.7};
  const KspQuery overflowing = db.MakeQuery(here, {"abbey"}, 1);
  const KspQuery in_range = db.MakeQuery(here, {"town"}, 1);

  // "abbey" lists Abbey alone: a one-byte count and a one-byte id. The
  // id byte becomes 0x7F, the one-byte varint of vertex 127.
  const std::string path = options.spill_directory + "/postings.bin";
  auto postings = DiskInvertedIndex::Open(path);
  ASSERT_TRUE(postings.ok()) << postings.status().ToString();
  std::vector<VertexId> list;
  ASSERT_TRUE((*postings)->GetPostings(overflowing.keywords[0], &list).ok());
  ASSERT_EQ(list, std::vector<VertexId>{0});
  uint64_t begin = 0;
  uint64_t end = 0;
  ASSERT_TRUE(
      (*postings)->PostingRange(overflowing.keywords[0], &begin, &end).ok());
  ASSERT_EQ(end - begin, 2u);
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>((*postings)->blob_offset() + end -
                                           1));
    file.put('\x7F');
    ASSERT_TRUE(file.good());
  }

  using ExecuteFn = Result<KspResult> (QueryExecutor::*)(const KspQuery&,
                                                         QueryStats*);
  const std::pair<const char*, ExecuteFn> algorithms[] = {
      {"BSP", &QueryExecutor::ExecuteBsp},
      {"SPP", &QueryExecutor::ExecuteSpp},
      {"SP", &QueryExecutor::ExecuteSp},
      {"TA", &QueryExecutor::ExecuteTa},
      {"KW", &QueryExecutor::ExecuteKeywordOnly},
  };
  QueryExecutor executor(&db);
  for (const auto& [name, fn] : algorithms) {
    auto result = (executor.*fn)(overflowing, nullptr);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_TRUE(result.status().IsCorruption())
        << name << ": " << result.status().ToString();
    EXPECT_NE(result.status().message().find("\"abbey\""),
              std::string::npos)
        << name << ": " << result.status().ToString();
  }
  // Had a bit of "abbey" survived at Abbey, "town" would read as
  // covered at distance 0 there (looseness 1, not 2); TA and keyword-only
  // rank by their own BFS and show it only in the materialized tree.
  for (const auto& [name, fn] : algorithms) {
    QueryExecutor fresh(&db);
    auto want = (fresh.*fn)(in_range, nullptr);
    auto got = (executor.*fn)(in_range, nullptr);
    ASSERT_TRUE(want.ok() && got.ok()) << name;
    ASSERT_EQ(got->entries.size(), 1u) << name;
    ASSERT_EQ(want->entries.size(), 1u) << name;
    EXPECT_EQ(got->entries[0].place, want->entries[0].place) << name;
    EXPECT_EQ(got->entries[0].looseness, 2.0) << name;
    EXPECT_EQ(got->entries[0].tree.looseness, 2.0) << name;
    EXPECT_EQ(got->entries[0].score, want->entries[0].score) << name;
  }
}

TEST_F(EnginePersistenceTest, MismatchedKbRejected) {
  KspDatabase original(kb_.get());
  original.PrepareAll(2);
  ASSERT_TRUE(original.SaveIndexes(dir_).ok());

  auto other = GenerateKnowledgeBase(SyntheticProfile::YagoLike(900));
  ASSERT_TRUE(other.ok());
  KspDatabase mismatched(other->get());
  EXPECT_FALSE(mismatched.LoadIndexes(dir_).ok());
}

}  // namespace
}  // namespace ksp
