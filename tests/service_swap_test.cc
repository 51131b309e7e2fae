// Zero-downtime hot index swap: clients hammer the server while new
// index generations are installed. The contract: zero transport errors,
// zero rejected or wrong answers attributable to the swap, every
// response oracle-exact for the generation that answered, and a failed
// swap leaves the current generation serving untouched.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
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
                   ("ksp_swap_" + tag + "_" +
                    std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(ServiceSwapTest, SwapUnderLoadDropsNothingAndStaysExact) {
  auto kb = MakeKb(500);
  auto db = std::make_shared<KspDatabase>(kb.get());
  db->PrepareAll(3);

  // Two saved generations in the same directory: each SaveIndexes bumps
  // the manifest generation, so successive swaps observably change the
  // index generation reported by /health.
  const std::string dir = FreshTempDir("load");
  ASSERT_TRUE(db->SaveIndexes(dir).ok());
  ASSERT_TRUE(db->SaveIndexes(dir).ok());

  QueryGenOptions qopt;
  qopt.num_keywords = 3;
  qopt.k = 4;
  qopt.seed = 47;
  const auto queries = GenerateQueries(*kb, QueryClass::kOriginal, qopt, 4);
  ASSERT_FALSE(queries.empty());

  // Oracle per query. Every generation is built from the same KB, so the
  // per-generation oracle is the same exact answer — which is precisely
  // the invariant a swap must preserve.
  QueryExecutor oracle(db.get());
  std::vector<KspResult> expected;
  for (const KspQuery& query : queries) {
    auto result = oracle.ExecuteSp(query, nullptr);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected.push_back(*result);
  }

  ServerOptions options;
  options.num_workers = 2;
  options.queue_capacity = 64;
  KspServer server(kb.get(), KspOptions(), options);
  ASSERT_TRUE(server.ServeDatabase(db).ok());
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
      // Keep querying at least until the swapper finishes, so load
      // definitely overlaps every swap.
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

  // Swap twice over the wire while the clients hammer away.
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
  // Load overlapped the swaps: more than one serving generation answered.
  EXPECT_GE(generations_seen.size(), 2u) << "no query spanned the swap";

  // After the swaps, health reports the loaded manifest generation (the
  // second save), not 0 (built in-process).
  auto client = KspClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto health = client->Health();
  ASSERT_TRUE(health.ok());
  EXPECT_NE(health->body.find("\"index_generation\": 2"), std::string::npos)
      << health->body;
  EXPECT_NE(health->body.find("\"serving_generation\": 3"),
            std::string::npos)
      << health->body;

  server.Stop();
  std::filesystem::remove_all(dir);
}

TEST(ServiceSwapTest, FailedSwapLeavesCurrentGenerationServing) {
  auto kb = MakeKb(300);
  auto db = std::make_shared<KspDatabase>(kb.get());
  db->PrepareAll(3);

  QueryGenOptions qopt;
  qopt.num_keywords = 3;
  qopt.k = 3;
  qopt.seed = 53;
  const auto queries = GenerateQueries(*kb, QueryClass::kOriginal, qopt, 1);
  ASSERT_FALSE(queries.empty());

  ServerOptions options;
  options.num_workers = 1;
  KspServer server(kb.get(), KspOptions(), options);
  ASSERT_TRUE(server.ServeDatabase(db).ok());
  ASSERT_TRUE(server.Start().ok());

  auto client = KspClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  const std::string missing = "/nonexistent/ksp-swap-target";
  auto bad = client->Swap(missing);
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_FALSE(bad->ok());
  EXPECT_NE(bad->message.find(missing), std::string::npos) << bad->message;
  EXPECT_EQ(server.serving_generation(), 1u);

  // Still serving, still exact.
  QueryExecutor oracle(db.get());
  auto expected = oracle.ExecuteSp(queries[0], nullptr);
  ASSERT_TRUE(expected.ok());
  auto response = client->Query(KspAlgorithm::kSp, queries[0].location,
                                KeywordStrings(*kb, queries[0]),
                                queries[0].k);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->ok()) << response->message;
  EXPECT_EQ(response->generation, 1u);
  ASSERT_EQ(response->entries.size(), expected->entries.size());
  for (size_t i = 0; i < expected->entries.size(); ++i) {
    EXPECT_EQ(response->entries[i].place, expected->entries[i].place);
  }
  server.Stop();
}

}  // namespace
}  // namespace ksp
