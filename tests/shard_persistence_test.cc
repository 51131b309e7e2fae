// A saved shard directory is only valid for the tile it was built over.
// Two STR tiles of equal size pass LoadIndexes' place-count check, so
// swapping their directories used to load cleanly — and then shard-level
// Rule 2 pruned on one tile's MBR while the R-tree held the other
// tile's places, changing top-k answers. The load must refuse such a
// directory with InvalidArgument naming it, and leave no index behind.
//
// The directory layout (SHARDS version 2) keeps the whole-KB state once:
// the reachability labels live in kb/, beside the shard directories,
// whose generations must equal kb/'s. A version-1 directory, with labels
// in every shard directory, is refused, and saving again upgrades it.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/io_util.h"
#include "core/database.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"
#include "service/client.h"
#include "service/server.h"
#include "shard/partition.h"
#include "shard/sharded_database.h"

namespace ksp {
namespace {

std::string ShardDir(const std::string& root, uint32_t shard) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/shard-%06u", shard);
  return root + buf;
}

class ShardPersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto kb = GenerateKnowledgeBase(SyntheticProfile::DBpediaLike(1500));
    ASSERT_TRUE(kb.ok()) << kb.status().ToString();
    kb_ = std::move(*kb);
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            ("ksp_shard_persist_" + std::string(info->name()) + "_" +
             std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Saves STR K=4 shards into dir_ and swaps the directories of the
  /// first two non-empty tiles of equal size, whose ids land in *a / *b.
  void SaveAndSwapEqualTiles(uint32_t* a, uint32_t* b) {
    auto built = ShardedKspDatabase::Build(kb_.get(), KspOptions(),
                                           StrPartition(*kb_, 4),
                                           /*alpha=*/3);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ASSERT_TRUE((*built)->Save(dir_).ok());
    // Unswapped, the directory loads.
    ASSERT_TRUE(ShardedKspDatabase::Load(kb_.get(), KspOptions(), dir_).ok());

    const ShardedKspDatabase& db = **built;
    bool found = false;
    for (uint32_t i = 0; i < db.num_shards() && !found; ++i) {
      for (uint32_t j = i + 1; j < db.num_shards() && !found; ++j) {
        const size_t size = db.shard_places(i).size();
        if (size != 0 && size == db.shard_places(j).size()) {
          *a = i;
          *b = j;
          found = true;
        }
      }
    }
    // Four STR tiles of near-equal population: two must tie.
    ASSERT_TRUE(found) << "no two STR tiles of equal size";
    const std::string tmp = dir_ + "/swap-tmp";
    std::filesystem::rename(ShardDir(dir_, *a), tmp);
    std::filesystem::rename(ShardDir(dir_, *b), ShardDir(dir_, *a));
    std::filesystem::rename(tmp, ShardDir(dir_, *b));
  }

  /// Builds STR K=4 shards with the default options (reachability on).
  std::unique_ptr<ShardedKspDatabase> BuildK4() {
    auto built = ShardedKspDatabase::Build(kb_.get(), KspOptions(),
                                           StrPartition(*kb_, 4),
                                           /*alpha=*/3);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return built.ok() ? std::move(*built) : nullptr;
  }

  /// Loads dir_ and checks that kb/ and every shard landed on
  /// `generation`.
  void ExpectLoadsAt(uint64_t generation) {
    auto loaded = ShardedKspDatabase::Load(kb_.get(), KspOptions(), dir_);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ((*loaded)->index_generation(), generation);
    for (uint32_t i = 0; i < (*loaded)->num_shards(); ++i) {
      const KspDatabase* shard = (*loaded)->shard(i);
      if (shard != nullptr) {
        EXPECT_EQ(shard->index_generation(), generation) << "shard " << i;
      }
    }
    KspDatabase store(kb_.get());
    ASSERT_TRUE(store.LoadIndexes(dir_ + "/kb").ok());
    EXPECT_EQ(store.index_generation(), generation);
  }

  std::unique_ptr<KnowledgeBase> kb_;
  std::string dir_;
};

TEST_F(ShardPersistenceTest, ReachabilityIsSavedOnceUnderKb) {
  auto built = BuildK4();
  ASSERT_NE(built, nullptr);
  ASSERT_TRUE(built->Save(dir_).ok());

  std::vector<std::string> reach_files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir_)) {
    if (entry.path().filename().string().rfind("reach-", 0) == 0) {
      reach_files.push_back(
          std::filesystem::relative(entry.path(), dir_).string());
    }
  }
  ASSERT_EQ(reach_files.size(), 1u)
      << "reach artifacts: " << ::testing::PrintToString(reach_files);
  EXPECT_EQ(std::filesystem::path(reach_files[0]).parent_path(), "kb");

  auto loaded = ShardedKspDatabase::Load(kb_.get(), KspOptions(), dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ReachabilityIndex* reach = nullptr;
  for (uint32_t i = 0; i < (*loaded)->num_shards(); ++i) {
    const KspDatabase* shard = (*loaded)->shard(i);
    ASSERT_NE(shard, nullptr);
    if (reach == nullptr) reach = shard->reachability_index();
    EXPECT_EQ(shard->reachability_index(), reach) << "shard " << i;
  }
  EXPECT_NE(reach, nullptr);
}

// Saving goes shard directories first, then kb/. Shard directories
// already past kb/ (here bumped one by one) pull kb/ up to them, and kb/
// already past the shards is matched by a second pass: either way the
// saved directory loads on one generation.
TEST_F(ShardPersistenceTest, SaveOverNewerGenerationsStaysAligned) {
  auto built = BuildK4();
  ASSERT_NE(built, nullptr);
  ASSERT_TRUE(built->Save(dir_).ok());
  ExpectLoadsAt(1);

  for (int bump = 0; bump < 2; ++bump) {
    for (uint32_t i = 0; i < built->num_shards(); ++i) {
      ASSERT_TRUE(built->shard(i)->SaveIndexes(ShardDir(dir_, i)).ok());
    }
  }
  ASSERT_TRUE(ShardedKspDatabase::Load(kb_.get(), KspOptions(), dir_)
                  .status()
                  .IsCorruption());
  ASSERT_TRUE(built->Save(dir_).ok());
  ExpectLoadsAt(4);

  KspDatabase store(kb_.get());
  ASSERT_TRUE(store.LoadIndexes(dir_ + "/kb").ok());
  ASSERT_TRUE(store.SaveIndexes(dir_ + "/kb").ok());
  ASSERT_TRUE(store.SaveIndexes(dir_ + "/kb").ok());
  ASSERT_TRUE(built->Save(dir_).ok());
  ExpectLoadsAt(8);
}

// A SHARDS version-1 directory kept the reachability labels in every
// shard directory and has no kb/. Load refuses it with Corruption naming
// the version, a hot swap to it fails while the server keeps serving,
// and saving the database over it writes version 2.
TEST_F(ShardPersistenceTest, VersionOneDirectoryIsRefused) {
  auto built = BuildK4();
  ASSERT_NE(built, nullptr);
  ASSERT_TRUE(built->Save(dir_).ok());

  // Rewrite SHARDS with the same tile lists under version 1.
  constexpr uint32_t kShardsMagic = 0x4B535348u;  // "KSSH"
  const std::string shards_path = dir_ + "/SHARDS";
  std::string body;
  {
    auto file = DefaultFileSystem()->NewRandomAccessFile(shards_path);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    ChecksummedReader reader(file->get());
    uint32_t version = 0;
    ASSERT_TRUE(reader.Open(kShardsMagic, &version).ok());
    EXPECT_EQ(version, 2u);
    ASSERT_TRUE(reader.ReadSection(&body).ok());
  }
  ASSERT_TRUE(WriteArtifactAtomically(
                  DefaultFileSystem(), shards_path, kShardsMagic,
                  /*artifact_version=*/1,
                  [&body](ChecksummedWriter* w) {
                    return w->WriteSection(body);
                  })
                  .ok());
  std::filesystem::remove_all(dir_ + "/kb");

  auto loaded = ShardedKspDatabase::Load(kb_.get(), KspOptions(), dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("SHARDS version 1"),
            std::string::npos)
      << loaded.status().ToString();

  ServerOptions options;
  options.num_workers = 1;
  KspServer server(kb_.get(), KspOptions(), options);
  ASSERT_TRUE(server.ServeShardedDatabase(BuildK4()).ok());
  ASSERT_TRUE(server.Start().ok());
  auto client = KspClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto swap = client->Swap(dir_);
  ASSERT_TRUE(swap.ok()) << swap.status().ToString();
  EXPECT_FALSE(swap->ok());
  EXPECT_EQ(server.serving_generation(), 1u);

  QueryGenOptions qopt;
  qopt.num_keywords = 3;
  qopt.seed = 67;
  const auto queries = GenerateQueries(*kb_, QueryClass::kOriginal, qopt, 1);
  ASSERT_FALSE(queries.empty());
  std::vector<std::string> keywords;
  for (TermId t : queries[0].keywords) {
    keywords.push_back(kb_->vocabulary().Term(t));
  }
  auto response = client->Query(KspAlgorithm::kSp, queries[0].location,
                                keywords, queries[0].k);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->ok()) << response->message;
  EXPECT_EQ(response->generation, 1u);
  server.Stop();

  ASSERT_TRUE(built->Save(dir_).ok());
  ExpectLoadsAt(2);
}

TEST_F(ShardPersistenceTest, SwappedEqualSizeTilesAreRefused) {
  uint32_t a = 0;
  uint32_t b = 0;
  SaveAndSwapEqualTiles(&a, &b);
  if (HasFatalFailure()) return;

  auto loaded = ShardedKspDatabase::Load(kb_.get(), KspOptions(), dir_);
  ASSERT_FALSE(loaded.ok()) << "a shard directory saved for tile " << b
                            << " loaded as tile " << a;
  EXPECT_TRUE(loaded.status().IsInvalidArgument())
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find(ShardDir(dir_, a)),
            std::string::npos)
      << loaded.status().ToString();
}

TEST_F(ShardPersistenceTest, WrongTileLoadLeavesNoIndex) {
  uint32_t a = 0;
  uint32_t b = 0;
  SaveAndSwapEqualTiles(&a, &b);
  if (HasFatalFailure()) return;

  // Tile a's shell over tile b's indexes, already holding built indexes
  // that the failed load must drop as well.
  KspOptions options;
  options.place_subset = StrPartition(*kb_, 4).tiles[a];
  KspDatabase shard(kb_.get(), options);
  shard.PrepareAll(/*alpha=*/3);
  ASSERT_TRUE(shard.has_rtree());

  Status st = shard.LoadIndexes(ShardDir(dir_, a));
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_FALSE(shard.has_rtree());
  EXPECT_EQ(shard.reachability_index(), nullptr);
  EXPECT_EQ(shard.alpha_index(), nullptr);
  EXPECT_EQ(shard.index_generation(), 0u);

  // Its own tile's directory (now under b's name) still loads.
  ASSERT_TRUE(shard.LoadIndexes(ShardDir(dir_, b)).ok());
  EXPECT_TRUE(shard.has_rtree());
  EXPECT_NE(shard.alpha_index(), nullptr);
}

}  // namespace
}  // namespace ksp
