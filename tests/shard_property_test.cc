// Randomized shard-partition property test: for ANY partition of the
// place set — not just the STR tiling — the sharded scatter-gather must
// equal the unsharded top-k exactly. 200 seeded rounds draw random tile
// boundaries (including degenerate single-place and empty tiles) and a
// random query, and additionally pin the no-false-prune property: when k
// covers every matching place, no shard may be pruned, because pruning
// would have to discard a place that belongs to the result. A non-finite
// query location is refused before any shard is visited.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alpha/alpha_index.h"
#include "common/rng.h"
#include "core/database.h"
#include "core/executor.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"
#include "rdf/knowledge_base.h"
#include "shard/partition.h"
#include "shard/sharded_database.h"
#include "shard/sharded_executor.h"

namespace ksp {
namespace {

/// A uniformly random partition of [0, num_places) into `num_tiles`
/// tiles: each place independently picks a tile, so small tile counts
/// regularly produce empty and single-place tiles — exactly the
/// degenerate shapes the sharding layer has to survive.
ShardPartition RandomPartition(uint32_t num_places, uint32_t num_tiles,
                               Rng* rng) {
  ShardPartition partition;
  partition.tiles.resize(num_tiles);
  for (PlaceId p = 0; p < num_places; ++p) {
    partition.tiles[rng->NextBounded(num_tiles)].push_back(p);
  }
  return partition;
}

class ShardPropertyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto kb = GenerateKnowledgeBase(SyntheticProfile::DBpediaLike(400));
    ASSERT_TRUE(kb.ok()) << kb.status().ToString();
    kb_ = kb->release();
    reference_ = new KspDatabase(kb_);
    reference_->PrepareAll(/*alpha=*/3);
  }

  static void TearDownTestSuite() {
    delete reference_;
    reference_ = nullptr;
    delete kb_;
    kb_ = nullptr;
  }

  static KnowledgeBase* kb_;
  static KspDatabase* reference_;
};

KnowledgeBase* ShardPropertyTest::kb_ = nullptr;
KspDatabase* ShardPropertyTest::reference_ = nullptr;

TEST_F(ShardPropertyTest, RandomPartitionsMatchUnsharded) {
  QueryExecutor unsharded(reference_);
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const uint32_t num_tiles = 1 + rng.NextBounded(6);
    auto partition = RandomPartition(kb_->num_places(), num_tiles, &rng);
    auto sharded = ShardedKspDatabase::Build(kb_, KspOptions(), partition,
                                             /*alpha=*/3);
    ASSERT_TRUE(sharded.ok())
        << "seed " << seed << ": " << sharded.status().ToString();
    ShardedExecutor executor(sharded->get());

    QueryGenOptions options;
    options.num_keywords = 2 + rng.NextBounded(3);
    options.seed = seed * 977;
    auto queries =
        GenerateQueries(*kb_, QueryClass::kOriginal, options, 1);
    ASSERT_EQ(queries.size(), 1u);
    KspQuery query = queries[0];
    query.k = 1 + rng.NextBounded(10);
    const KspAlgorithm algorithm =
        rng.NextBounded(2) == 0 ? KspAlgorithm::kBsp : KspAlgorithm::kSpp;

    auto want = unsharded.Execute(algorithm, query);
    ASSERT_TRUE(want.ok()) << "seed " << seed;
    QueryStats stats;
    auto got = executor.Execute(algorithm, query, &stats);
    ASSERT_TRUE(got.ok())
        << "seed " << seed << ": " << got.status().ToString();

    ASSERT_EQ(want->entries.size(), got->entries.size())
        << "seed " << seed;
    for (size_t i = 0; i < want->entries.size(); ++i) {
      ASSERT_EQ(want->entries[i].place, got->entries[i].place)
          << "seed " << seed << " rank " << i;
      ASSERT_EQ(want->entries[i].looseness, got->entries[i].looseness)
          << "seed " << seed << " rank " << i;
      ASSERT_EQ(want->entries[i].spatial_distance,
                got->entries[i].spatial_distance)
          << "seed " << seed << " rank " << i;
      ASSERT_EQ(want->entries[i].score, got->entries[i].score)
          << "seed " << seed << " rank " << i;
    }
  }
}

// When k is at least the number of matching places, the global heap
// never fills, θ stays +inf, and no shard-level prune may ever fire —
// every prune at an infinite threshold would discard result entries.
TEST_F(ShardPropertyTest, NoPruningWhenKCoversAllMatches) {
  QueryExecutor unsharded(reference_);
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed * 31);
    const uint32_t num_tiles = 2 + rng.NextBounded(5);
    auto partition = RandomPartition(kb_->num_places(), num_tiles, &rng);
    auto sharded = ShardedKspDatabase::Build(kb_, KspOptions(), partition,
                                             /*alpha=*/3);
    ASSERT_TRUE(sharded.ok()) << "seed " << seed;
    ShardedExecutor executor(sharded->get());

    QueryGenOptions options;
    options.num_keywords = 2;
    options.seed = seed * 1301;
    auto queries =
        GenerateQueries(*kb_, QueryClass::kOriginal, options, 1);
    ASSERT_EQ(queries.size(), 1u);
    KspQuery query = queries[0];
    // k ≥ total matching places: ask for every place in the KB.
    query.k = kb_->num_places();

    auto want = unsharded.Execute(KspAlgorithm::kBsp, query);
    ASSERT_TRUE(want.ok()) << "seed " << seed;
    QueryStats stats;
    auto got = executor.Execute(KspAlgorithm::kBsp, query, &stats);
    ASSERT_TRUE(got.ok()) << "seed " << seed;

    EXPECT_EQ(stats.shards_pruned, 0u) << "seed " << seed;
    ASSERT_EQ(want->entries.size(), got->entries.size())
        << "seed " << seed;
    for (size_t i = 0; i < want->entries.size(); ++i) {
      ASSERT_EQ(want->entries[i].place, got->entries[i].place)
          << "seed " << seed << " rank " << i;
      ASSERT_EQ(want->entries[i].score, got->entries[i].score)
          << "seed " << seed << " rank " << i;
    }
  }
}

// A NaN or infinite location is refused before any shard is visited, as
// the unsharded executor refuses it. The check cannot be left to the
// shards: at +inf, shard-level Rule 2 prunes every shard, and the empty
// OK it would answer is one no shard ever checked.
TEST_F(ShardPropertyTest, NonFiniteLocationRejectedBeforeDispatch) {
  auto sharded = ShardedKspDatabase::Build(kb_, KspOptions(),
                                           StrPartition(*kb_, 4),
                                           /*alpha=*/3);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ShardedExecutor executor(sharded->get());
  QueryExecutor unsharded(reference_);
  QueryGenOptions options;
  options.num_keywords = 2;
  options.seed = 7;
  auto queries = GenerateQueries(*kb_, QueryClass::kOriginal, options, 1);
  ASSERT_EQ(queries.size(), 1u);
  std::vector<std::string> keywords;
  for (TermId t : queries[0].keywords) {
    keywords.push_back(kb_->vocabulary().Term(t));
  }

  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNan, kInf, -kInf}) {
    for (const bool on_x : {true, false}) {
      KspQuery query = queries[0];
      (on_x ? query.location.x : query.location.y) = bad;
      for (const KspAlgorithm algorithm :
           {KspAlgorithm::kBsp, KspAlgorithm::kSpp, KspAlgorithm::kSp,
            KspAlgorithm::kTa, KspAlgorithm::kKeywordOnly}) {
        SCOPED_TRACE(::testing::Message()
                     << KspAlgorithmName(algorithm) << " "
                     << (on_x ? "x" : "y") << " = " << bad);
        QueryStats stats;
        auto by_id = executor.Execute(algorithm, query, &stats);
        ASSERT_FALSE(by_id.ok());
        EXPECT_TRUE(by_id.status().IsInvalidArgument());
        EXPECT_EQ(stats.shards_visited + stats.shards_pruned, 0u);
        auto by_string = executor.Execute(algorithm, query.location,
                                          keywords, query.k, &stats);
        ASSERT_FALSE(by_string.ok());
        EXPECT_TRUE(by_string.status().IsInvalidArgument());
        EXPECT_EQ(stats.shards_visited + stats.shards_pruned, 0u);
        auto want = unsharded.Execute(algorithm, query);
        ASSERT_FALSE(want.ok());
        EXPECT_EQ(want.status().code(), by_id.status().code());
      }
    }
  }
}

/// Each place's (term, distance) pairs in `alpha`, in term order.
std::vector<std::vector<std::pair<TermId, uint32_t>>> PlaceWordNeighborhoods(
    const AlphaIndex& alpha, TermId num_terms) {
  std::vector<std::vector<std::pair<TermId, uint32_t>>> wns(
      alpha.num_places());
  for (TermId t = 0; t < num_terms; ++t) {
    for (const AlphaIndex::Posting& posting : alpha.TermPostings(t)) {
      if (posting.entry < alpha.num_places()) {
        wns[posting.entry].emplace_back(t, posting.distance);
      }
    }
  }
  return wns;
}

// A shard's α index holds word neighborhoods for its own tile only:
// no place posting outside the tile, each tile place's WN equal to the
// unsharded one, and the tiles' place postings adding up to the
// unsharded index's — for STR tiles and for random partitions with
// empty and single-place tiles.
TEST_F(ShardPropertyTest, ShardAlphaIndexCoversExactlyItsTile) {
  const uint32_t num_places = kb_->num_places();
  const TermId num_terms = kb_->num_terms();
  const auto want = PlaceWordNeighborhoods(*reference_->alpha_index(),
                                           num_terms);
  uint64_t want_postings = 0;
  for (const auto& wn : want) want_postings += wn.size();

  std::vector<ShardPartition> partitions{StrPartition(*kb_, 4)};
  ShardPartition degenerate;
  degenerate.tiles.resize(3);  // {place 0}, {}, {every other place}
  degenerate.tiles[0].push_back(0);
  for (PlaceId p = 1; p < num_places; ++p) degenerate.tiles[2].push_back(p);
  partitions.push_back(std::move(degenerate));
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 7919);
    partitions.push_back(RandomPartition(num_places, 2 + seed, &rng));
  }

  for (size_t round = 0; round < partitions.size(); ++round) {
    auto sharded = ShardedKspDatabase::Build(kb_, KspOptions(),
                                             partitions[round], /*alpha=*/3);
    ASSERT_TRUE(sharded.ok()) << "partition " << round;
    uint64_t got_postings = 0;
    for (uint32_t i = 0; i < (*sharded)->num_shards(); ++i) {
      const KspDatabase* shard = (*sharded)->shard(i);
      if (shard == nullptr) continue;
      const auto got = PlaceWordNeighborhoods(*shard->alpha_index(),
                                              num_terms);
      std::vector<bool> in_tile(num_places, false);
      for (PlaceId p : (*sharded)->shard_places(i)) in_tile[p] = true;
      for (PlaceId p = 0; p < num_places; ++p) {
        got_postings += got[p].size();
        if (in_tile[p]) {
          EXPECT_EQ(got[p], want[p])
              << "partition " << round << " shard " << i << " place " << p;
        } else {
          EXPECT_TRUE(got[p].empty())
              << "partition " << round << " shard " << i
              << " holds a WN for place " << p << " outside its tile";
        }
      }
    }
    EXPECT_EQ(got_postings, want_postings) << "partition " << round;
  }
}

}  // namespace
}  // namespace ksp
