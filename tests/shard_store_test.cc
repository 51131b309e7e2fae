// One store under K shards (DESIGN.md §12) on the disk backend: the
// spill directory holds the graph and postings once plus one R-tree file
// per non-empty tile, and every shard reads through the same buffer pool
// and semantic cache, so the configured budgets bound the whole sharded
// database at every K. Answers stay exact through the shared pool and
// cache, built and loaded.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/executor.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"
#include "shard/partition.h"
#include "shard/sharded_database.h"
#include "shard/sharded_executor.h"

namespace ksp {
namespace {

constexpr uint64_t kPoolBytes = 256 << 10;
constexpr size_t kCacheBytes = 1 << 20;

/// Regular files directly in `dir`, name -> size. A subdirectory fails
/// the calling test.
std::map<std::string, uint64_t> SpillFiles(const std::string& dir) {
  std::map<std::string, uint64_t> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) {
      ADD_FAILURE() << entry.path() << " is not a regular file";
      continue;
    }
    files[entry.path().filename().string()] = entry.file_size();
  }
  return files;
}

class ShardStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto kb = GenerateKnowledgeBase(SyntheticProfile::DBpediaLike(800));
    ASSERT_TRUE(kb.ok()) << kb.status().ToString();
    kb_ = std::move(*kb);
    root_ = (std::filesystem::temp_directory_path() /
             ("ksp_shard_store_" + std::to_string(::getpid())))
                .string();
    std::filesystem::remove_all(root_);

    reference_ = std::make_unique<KspDatabase>(kb_.get());
    reference_->PrepareAll(/*alpha=*/3);
    QueryGenOptions qopt;
    qopt.num_keywords = 3;
    qopt.k = 4;
    qopt.seed = 61;
    queries_ = GenerateQueries(*kb_, QueryClass::kOriginal, qopt, 12);
    ASSERT_FALSE(queries_.empty());

    // What an unsharded database spills, for the size comparison.
    KspOptions options = DiskOptions("unsharded");
    KspDatabase unsharded(kb_.get(), options);
    ASSERT_TRUE(unsharded.storage_backend_status().ok());
    unsharded_files_ = SpillFiles(options.spill_directory);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  KspOptions DiskOptions(const std::string& spill) const {
    KspOptions options;
    options.backend = StorageBackend::kDisk;
    options.spill_directory = root_ + "/" + spill;
    options.buffer_pool_budget_bytes = kPoolBytes;
    options.cache_budget_bytes = kCacheBytes;
    return options;
  }

  /// The spill holds graph + postings exactly as an unsharded database
  /// spills them, plus one R-tree per non-empty tile; every shard shares
  /// one pool and one cache of the configured budgets; SP answers match
  /// the unsharded memory database, cold and warm.
  void ExpectOneStore(const ShardedKspDatabase& db,
                      const std::string& spill) {
    ASSERT_TRUE(db.storage_backend_status().ok())
        << db.storage_backend_status().ToString();
    std::map<std::string, uint64_t> want;
    for (const char* name :
         {"graph-out.bin", "graph-in.bin", "postings.bin"}) {
      ASSERT_TRUE(unsharded_files_.count(name)) << name;
      want[name] = unsharded_files_.at(name);
    }
    const SharedBufferPool* pool = nullptr;
    const SemanticQueryCache* cache = nullptr;
    for (uint32_t i = 0; i < db.num_shards(); ++i) {
      const KspDatabase* shard = db.shard(i);
      if (shard == nullptr) continue;
      char name[64];
      std::snprintf(name, sizeof(name), "rtree-shard-%06u.bin", i);
      want[name] = 0;
      if (pool == nullptr) {
        pool = shard->buffer_pool();
        cache = shard->semantic_cache();
      }
      EXPECT_EQ(shard->buffer_pool(), pool) << "shard " << i;
      EXPECT_EQ(shard->semantic_cache(), cache) << "shard " << i;
    }
    ASSERT_NE(pool, nullptr);
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(pool->budget_bytes(), kPoolBytes);
    EXPECT_EQ(cache->budget_bytes(), kCacheBytes);

    std::map<std::string, uint64_t> got = SpillFiles(spill);
    for (auto& [name, size] : got) {
      if (name.rfind("rtree-", 0) == 0 && want.count(name)) {
        EXPECT_GT(size, 0u) << name;
        size = 0;
      }
    }
    EXPECT_EQ(got, want);

    ShardedExecutor executor(&db);
    for (int pass = 0; pass < 2; ++pass) {
      for (const KspQuery& query : queries_) {
        QueryExecutor oracle(reference_.get());
        auto expected = oracle.ExecuteSp(query);
        ASSERT_TRUE(expected.ok()) << expected.status().ToString();
        auto result = executor.Execute(KspAlgorithm::kSp, query, nullptr);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ASSERT_EQ(result->entries.size(), expected->entries.size());
        for (size_t r = 0; r < expected->entries.size(); ++r) {
          EXPECT_EQ(result->entries[r].place, expected->entries[r].place);
          EXPECT_EQ(result->entries[r].score, expected->entries[r].score);
        }
      }
    }
    EXPECT_GT(cache->dg_stats().hits, 0u) << "the warm pass hit no distance";
  }

  std::unique_ptr<KnowledgeBase> kb_;
  std::string root_;
  std::unique_ptr<KspDatabase> reference_;
  std::vector<KspQuery> queries_;
  std::map<std::string, uint64_t> unsharded_files_;
};

TEST_F(ShardStoreTest, OneSpillPoolAndCacheAtEveryK) {
  for (uint32_t k : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("K = " + std::to_string(k));
    const std::string spill = "built-" + std::to_string(k);
    auto built = ShardedKspDatabase::Build(
        kb_.get(), DiskOptions(spill), StrPartition(*kb_, k), /*alpha=*/3);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ExpectOneStore(**built, root_ + "/" + spill);
    if (HasFatalFailure()) return;
  }

  // Loading a saved directory on kDisk builds the same one store.
  auto built = ShardedKspDatabase::Build(kb_.get(), KspOptions(),
                                         StrPartition(*kb_, 4), 3);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_TRUE((*built)->Save(root_ + "/saved").ok());
  auto loaded = ShardedKspDatabase::Load(kb_.get(), DiskOptions("loaded"),
                                         root_ + "/saved");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectOneStore(**loaded, root_ + "/loaded");
}

}  // namespace
}  // namespace ksp
