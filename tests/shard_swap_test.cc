// Hot swap under sharding: installing a sharded directory flips every
// shard at once behind the server's single ServingState pointer, so no
// in-flight query may ever observe a mix of shard generations. Clients
// hammer the server across repeated sharded swaps: zero transport
// errors, every answer oracle-exact for its generation, and ≥2 serving
// generations answering (the load really overlapped the swaps). A torn
// multi-shard save — one shard directory bumped out from under the
// ensemble — must fail the swap with Corruption and leave the current
// generation serving untouched.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/executor.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"
#include "service/client.h"
#include "service/server.h"
#include "shard/partition.h"
#include "shard/sharded_database.h"
#include "shard/sharded_executor.h"

namespace ksp {
namespace {

std::unique_ptr<KnowledgeBase> MakeKb(uint32_t places) {
  auto kb = GenerateKnowledgeBase(SyntheticProfile::DBpediaLike(places));
  EXPECT_TRUE(kb.ok()) << kb.status().ToString();
  return std::move(*kb);
}

std::vector<std::string> KeywordStrings(const KnowledgeBase& kb,
                                        const KspQuery& query) {
  std::vector<std::string> out;
  out.reserve(query.keywords.size());
  for (TermId t : query.keywords) out.push_back(kb.vocabulary().Term(t));
  return out;
}

std::string FreshTempDir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("ksp_shard_swap_" + tag + "_" +
                    std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(ShardSwapTest, ShardedSwapUnderLoadIsAtomicAndExact) {
  auto kb = MakeKb(500);

  // The sharded ensemble to serve: K=3 STR tiles, saved twice so
  // successive swaps land on observably different index generations —
  // always aligned across shards thanks to the generation floor.
  auto partition = StrPartition(*kb, 3);
  auto built =
      ShardedKspDatabase::Build(kb.get(), KspOptions(), partition, 3);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::string dir = FreshTempDir("load");
  ASSERT_TRUE((*built)->Save(dir).ok());
  ASSERT_TRUE((*built)->Save(dir).ok());

  QueryGenOptions qopt;
  qopt.num_keywords = 3;
  qopt.k = 4;
  qopt.seed = 47;
  const auto queries = GenerateQueries(*kb, QueryClass::kOriginal, qopt, 4);
  ASSERT_FALSE(queries.empty());

  // Per-query oracle from the sharded ensemble itself — which the
  // equivalence suite pins to the unsharded answer. Every generation is
  // built from the same KB, so each generation's exact answer is this
  // same result; a mixed-generation merge would be the only way to
  // diverge.
  ShardedExecutor oracle(built->get());
  std::vector<KspResult> expected;
  for (const KspQuery& query : queries) {
    auto result = oracle.Execute(KspAlgorithm::kSp, query, nullptr);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected.push_back(*result);
  }

  ServerOptions options;
  options.num_workers = 2;
  options.queue_capacity = 64;
  KspServer server(kb.get(), KspOptions(), options);
  // First install via ServeDirectory: the SHARDS manifest routes to the
  // sharded load path.
  ASSERT_TRUE(server.ServeDirectory(dir).ok());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.serving_generation(), 1u);

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 40;
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> oks{0};
  std::mutex gen_mu;
  std::set<uint64_t> generations_seen;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  std::atomic<bool> swapping_done{false};
  // Clients that have had a first answer (or gave up connecting). The
  // swapper waits for all of them, so the swaps cannot finish before
  // the load starts.
  std::atomic<int> clients_answered{0};

  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      auto client = KspClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failures.fetch_add(kRequestsPerClient);
        clients_answered.fetch_add(1);
        return;
      }
      int sent = 0;
      while (sent < kRequestsPerClient || !swapping_done.load()) {
        const size_t qi = static_cast<size_t>(c + sent) % queries.size();
        auto response =
            client->Query(KspAlgorithm::kSp, queries[qi].location,
                          KeywordStrings(*kb, queries[qi]), queries[qi].k);
        if (++sent == 1) clients_answered.fetch_add(1);
        if (!response.ok() || !response->ok()) {
          ++failures;  // A swap must never surface as any kind of error.
          continue;
        }
        // Exactness doubles as the generation-mix detector: a query
        // merging shards from two generations could only produce these
        // exact entries by accident.
        const KspResult& want = expected[qi];
        bool same = response->entries.size() == want.entries.size();
        for (size_t i = 0; same && i < want.entries.size(); ++i) {
          same = response->entries[i].place == want.entries[i].place &&
                 response->entries[i].looseness ==
                     want.entries[i].looseness &&
                 response->entries[i].score == want.entries[i].score;
        }
        if (!same) {
          ++failures;
          continue;
        }
        ++oks;
        std::lock_guard<std::mutex> lock(gen_mu);
        generations_seen.insert(response->generation);
        if (sent > kRequestsPerClient * 4) break;  // Safety valve.
      }
    });
  }

  // Swap the whole shard ensemble twice over the wire, mid-load.
  while (clients_answered.load() < kClients) std::this_thread::yield();
  {
    auto swapper = KspClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(swapper.ok());
    for (int s = 0; s < 2; ++s) {
      auto response = swapper->Swap(dir);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_TRUE(response->ok()) << response->message;
    }
  }
  swapping_done.store(true);
  for (auto& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(oks.load(), 0u);
  EXPECT_EQ(server.serving_generation(), 3u);  // 1 install + 2 swaps.
  EXPECT_GE(generations_seen.size(), 2u) << "no query spanned the swap";

  // Health reports the sharded topology and the aligned manifest
  // generation of the second save.
  auto client = KspClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto health = client->Health();
  ASSERT_TRUE(health.ok());
  EXPECT_NE(health->body.find("\"num_shards\": 3"), std::string::npos)
      << health->body;
  EXPECT_NE(health->body.find("\"index_generation\": 2"), std::string::npos)
      << health->body;

  server.Stop();
  std::filesystem::remove_all(dir);
}

TEST(ShardSwapTest, TornShardSaveFailsSwapAndKeepsServing) {
  auto kb = MakeKb(300);

  auto partition = StrPartition(*kb, 3);
  auto built =
      ShardedKspDatabase::Build(kb.get(), KspOptions(), partition, 3);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::string dir = FreshTempDir("torn");
  ASSERT_TRUE((*built)->Save(dir).ok());

  // Tear the directory: bump ONE shard to a newer generation directly,
  // as an interrupted ensemble save would leave it.
  ASSERT_TRUE((*built)
                  ->shard(0)
                  ->SaveIndexes(dir + "/shard-000000")
                  .ok());

  QueryGenOptions qopt;
  qopt.num_keywords = 3;
  qopt.k = 3;
  qopt.seed = 53;
  const auto queries = GenerateQueries(*kb, QueryClass::kOriginal, qopt, 1);
  ASSERT_FALSE(queries.empty());

  ServerOptions options;
  options.num_workers = 1;
  KspServer server(kb.get(), KspOptions(), options);
  ASSERT_TRUE(server.ServeShardedDatabase(std::move(*built)).ok());
  ASSERT_TRUE(server.Start().ok());

  // The torn directory must refuse to load — Corruption, not a mix.
  auto direct = ShardedKspDatabase::Load(kb.get(), KspOptions(), dir);
  ASSERT_FALSE(direct.ok());
  EXPECT_TRUE(direct.status().IsCorruption())
      << direct.status().ToString();

  auto client = KspClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto bad = client->Swap(dir);
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_FALSE(bad->ok());
  EXPECT_EQ(server.serving_generation(), 1u);

  // Still serving the original sharded generation, still exact.
  auto response = client->Query(KspAlgorithm::kSp, queries[0].location,
                                KeywordStrings(*kb, queries[0]),
                                queries[0].k);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->ok()) << response->message;
  EXPECT_EQ(response->generation, 1u);

  server.Stop();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ksp
