// Shard-equivalence oracle suite (DESIGN.md §12): the sharded
// scatter-gather executor must return byte-identical results to a single
// unsharded database — same places, same exact doubles, same order — for
// every algorithm, at every shard count, on both storage backends. The
// workload is the same 210 seeded queries the oracle and backend
// invariance suites pin, so a divergence here isolates the sharding
// layer itself.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "core/database.h"
#include "core/executor.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"
#include "query_corpus.h"
#include "rdf/knowledge_base.h"
#include "shard/partition.h"
#include "shard/sharded_database.h"
#include "shard/sharded_executor.h"

namespace ksp {
namespace {

constexpr uint32_t kShardCounts[] = {1, 2, 4, 8};
constexpr KspAlgorithm kAlgorithms[] = {KspAlgorithm::kBsp,
                                        KspAlgorithm::kSpp,
                                        KspAlgorithm::kSp};

/// Exact comparison: bitwise-equal doubles, not just approximately
/// equal — the equivalence claim is byte-identical results.
void ExpectByteIdentical(const KspResult& want, const KspResult& got,
                         const std::string& context) {
  ASSERT_EQ(want.entries.size(), got.entries.size()) << context;
  for (size_t i = 0; i < want.entries.size(); ++i) {
    const KspResultEntry& w = want.entries[i];
    const KspResultEntry& g = got.entries[i];
    ASSERT_EQ(w.place, g.place) << context << " rank " << i;
    EXPECT_EQ(std::memcmp(&w.looseness, &g.looseness, sizeof(double)), 0)
        << context << " rank " << i << " looseness " << w.looseness
        << " vs " << g.looseness;
    EXPECT_EQ(std::memcmp(&w.spatial_distance, &g.spatial_distance,
                          sizeof(double)),
              0)
        << context << " rank " << i << " spatial " << w.spatial_distance
        << " vs " << g.spatial_distance;
    EXPECT_EQ(std::memcmp(&w.score, &g.score, sizeof(double)), 0)
        << context << " rank " << i << " score " << w.score << " vs "
        << g.score;
  }
}

class ShardEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto kb = GenerateKnowledgeBase(SyntheticProfile::DBpediaLike(1500));
    ASSERT_TRUE(kb.ok()) << kb.status().ToString();
    kb_ = kb->release();

    reference_ = new KspDatabase(kb_);
    reference_->PrepareAll(/*alpha=*/3);
    ASSERT_TRUE(reference_->storage_backend_status().ok());

    // The canonical 210-query seeded workload (tests/query_corpus.h).
    *queries_ = testing::MakeEquivalenceCorpus(*kb_);
    ASSERT_GE(queries_->size(), 200u);
  }

  static void TearDownTestSuite() {
    delete reference_;
    reference_ = nullptr;
    delete kb_;
    kb_ = nullptr;
    queries_->clear();
  }

  /// Reference result from the unsharded database, memoized across shard
  /// counts (the reference does not depend on K).
  const KspResult& Reference(KspAlgorithm algorithm, size_t query_index,
                             uint32_t k) {
    const auto key = std::make_tuple(algorithm, query_index, k);
    auto it = reference_cache_.find(key);
    if (it != reference_cache_.end()) return it->second;
    QueryExecutor executor(reference_);
    KspQuery query = (*queries_)[query_index];
    query.k = k;
    auto result = executor.Execute(algorithm, query);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return reference_cache_.emplace(key, std::move(*result)).first->second;
  }

  /// Runs the full workload against `sharded` and diffs every result
  /// against the unsharded reference. Accumulates shards pruned into
  /// `total_pruned` when non-null.
  void CheckSharded(const ShardedKspDatabase& sharded,
                    ShardedExecutor* executor,
                    const std::vector<uint32_t>& ks,
                    const std::string& label,
                    uint64_t* total_pruned = nullptr) {
    uint32_t nonempty_shards = 0;
    for (uint32_t s = 0; s < sharded.num_shards(); ++s) {
      if (sharded.shard(s) != nullptr) ++nonempty_shards;
    }
    for (KspAlgorithm algorithm : kAlgorithms) {
      for (size_t qi = 0; qi < queries_->size(); ++qi) {
        for (uint32_t k : ks) {
          KspQuery query = (*queries_)[qi];
          query.k = k;
          QueryStats stats;
          auto result = executor->Execute(algorithm, query, &stats);
          const std::string context =
              label + " " + KspAlgorithmName(algorithm) + " query " +
              std::to_string(qi) + " k=" + std::to_string(k);
          ASSERT_TRUE(result.ok())
              << context << ": " << result.status().ToString();
          ExpectByteIdentical(Reference(algorithm, qi, k), *result,
                              context);
          // Every non-empty shard is either visited or pruned (an
          // unanswerable query shortcuts with both zero).
          if (stats.shards_visited + stats.shards_pruned != 0) {
            ASSERT_EQ(stats.shards_visited + stats.shards_pruned,
                      nonempty_shards)
                << context;
          }
          if (total_pruned != nullptr) *total_pruned += stats.shards_pruned;
        }
      }
    }
  }

  static KnowledgeBase* kb_;
  static KspDatabase* reference_;
  static std::vector<KspQuery>* queries_;
  std::map<std::tuple<KspAlgorithm, size_t, uint32_t>, KspResult>
      reference_cache_;
};

KnowledgeBase* ShardEquivalenceTest::kb_ = nullptr;
KspDatabase* ShardEquivalenceTest::reference_ = nullptr;
std::vector<KspQuery>* ShardEquivalenceTest::queries_ =
    new std::vector<KspQuery>();

// Every shard count, every algorithm, every k, on the in-memory
// backend: byte-identical to unsharded, and shard-level pruning fires
// somewhere in the K>1 workloads.
TEST_F(ShardEquivalenceTest, MemoryBackendByteIdentical) {
  uint64_t pruned_at_any_k_gt1 = 0;
  for (uint32_t num_shards : kShardCounts) {
    auto partition = StrPartition(*kb_, num_shards);
    auto sharded = ShardedKspDatabase::Build(kb_, KspOptions(), partition,
                                             /*alpha=*/3);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ShardedExecutor executor(sharded->get());
    uint64_t pruned = 0;
    CheckSharded(**sharded, &executor, {1u, 5u, 10u},
                 "mem K=" + std::to_string(num_shards), &pruned);
    if (num_shards > 1) pruned_at_any_k_gt1 += pruned;
  }
  // The acceptance bar: at least one sharded configuration actually
  // skips shards, so the suite exercises the prune path, not just the
  // merge path.
  EXPECT_GT(pruned_at_any_k_gt1, 0u);
}

// Same claim with every shard living on the disk backend behind a small
// shared buffer pool.
TEST_F(ShardEquivalenceTest, DiskBackendByteIdentical) {
  for (uint32_t num_shards : kShardCounts) {
    auto partition = StrPartition(*kb_, num_shards);
    KspOptions options;
    options.backend = StorageBackend::kDisk;
    options.buffer_pool_budget_bytes = 1 << 20;
    auto sharded =
        ShardedKspDatabase::Build(kb_, options, partition, /*alpha=*/3);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ASSERT_TRUE((*sharded)->storage_backend_status().ok());
    ShardedExecutor executor(sharded->get());
    CheckSharded(**sharded, &executor, {5u},
                 "disk K=" + std::to_string(num_shards));
  }
}

// Persistence round-trip: Save writes every shard plus the SHARDS
// manifest; Load rebuilds the ensemble on both backends and results stay
// byte-identical.
TEST_F(ShardEquivalenceTest, SaveLoadRoundTripByteIdentical) {
  auto partition = StrPartition(*kb_, 4);
  auto built = ShardedKspDatabase::Build(kb_, KspOptions(), partition,
                                         /*alpha=*/3);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  const std::string dir =
      ::testing::TempDir() + "/shard_equivalence_roundtrip";
  ASSERT_TRUE((*built)->Save(dir).ok());

  for (StorageBackend backend :
       {StorageBackend::kMemory, StorageBackend::kDisk}) {
    KspOptions options;
    options.backend = backend;
    if (backend == StorageBackend::kDisk) {
      options.buffer_pool_budget_bytes = 1 << 20;
    }
    auto loaded = ShardedKspDatabase::Load(kb_, options, dir);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_TRUE((*loaded)->storage_backend_status().ok());
    EXPECT_GT((*loaded)->index_generation(), 0u);
    ShardedExecutor executor(loaded->get());
    CheckSharded(**loaded, &executor, {5u},
                 backend == StorageBackend::kDisk ? "loaded-disk K=4"
                                                  : "loaded-mem K=4");
  }
}

}  // namespace
}  // namespace ksp
