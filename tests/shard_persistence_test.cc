// A saved shard directory is only valid for the tile it was built over.
// Two STR tiles of equal size pass LoadIndexes' place-count check, so
// swapping their directories used to load cleanly — and then shard-level
// Rule 2 pruned on one tile's MBR while the R-tree held the other
// tile's places, changing top-k answers. The load must refuse such a
// directory with InvalidArgument naming it, and leave no index behind.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "datagen/synthetic.h"
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

  std::unique_ptr<KnowledgeBase> kb_;
  std::string dir_;
};

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
