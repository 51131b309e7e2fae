// The disk backend's spill files are written to a temp name and renamed
// into place. A second database spilling into the directory of a live
// one — a hot swap that builds the next generation with the same
// options — must leave the live one reading the files it opened. The
// adjacency files used to be truncated and rewritten in place, so every
// later page read of the live database hit the other KB's graph.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/executor.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"

namespace ksp {
namespace {

std::unique_ptr<KnowledgeBase> MakeKb(uint32_t vertices) {
  auto kb = GenerateKnowledgeBase(SyntheticProfile::DBpediaLike(vertices));
  EXPECT_TRUE(kb.ok()) << kb.status().ToString();
  return std::move(*kb);
}

TEST(StorageTest, SpillIntoLiveDirectoryLeavesItExact) {
  auto live_kb = MakeKb(2000);
  auto other_kb = MakeKb(300);
  const std::string spill =
      (std::filesystem::temp_directory_path() /
       ("ksp_spill_live_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(spill);

  KspDatabase reference(live_kb.get());
  reference.PrepareAll(/*alpha=*/3);

  KspOptions options;
  options.backend = StorageBackend::kDisk;
  options.spill_directory = spill;
  // A small pool, so the queries below read their pages from the files.
  options.buffer_pool_budget_bytes = 64 << 10;
  KspDatabase live(live_kb.get(), options);
  live.PrepareAll(/*alpha=*/3);
  ASSERT_TRUE(live.storage_backend_status().ok())
      << live.storage_backend_status().ToString();

  // The next generation, over another KB, spills into the same directory
  // while `live` still has every spill file open.
  KspDatabase other(other_kb.get(), options);
  other.PrepareAll(/*alpha=*/3);
  ASSERT_TRUE(other.storage_backend_status().ok())
      << other.storage_backend_status().ToString();

  QueryGenOptions qopt;
  qopt.num_keywords = 3;
  qopt.k = 5;
  qopt.seed = 59;
  const auto queries =
      GenerateQueries(*live_kb, QueryClass::kOriginal, qopt, 50);
  ASSERT_GE(queries.size(), 20u);
  QueryExecutor want(&reference);
  QueryExecutor got(&live);
  int failed = 0;
  int wrong = 0;
  for (const KspQuery& query : queries) {
    auto expected = want.ExecuteSp(query, nullptr);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto result = got.ExecuteSp(query, nullptr);
    if (!result.ok()) {
      ++failed;
      continue;
    }
    bool same = result->entries.size() == expected->entries.size();
    for (size_t i = 0; same && i < expected->entries.size(); ++i) {
      same = result->entries[i].place == expected->entries[i].place &&
             result->entries[i].score == expected->entries[i].score;
    }
    if (!same) ++wrong;
  }
  EXPECT_EQ(failed, 0) << "queries on the live database failed";
  EXPECT_EQ(wrong, 0) << "queries on the live database answered wrongly";

  std::filesystem::remove_all(spill);
}

}  // namespace
}  // namespace ksp
