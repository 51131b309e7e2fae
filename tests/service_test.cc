// Serving-tier protocol and end-to-end behavior: codec roundtrips,
// oracle-matched query responses, inline health/metrics/explain, wire
// deadlines past the clock's range, non-finite query locations, and the
// fast-reject path for malformed and oversized frames.

#include <gtest/gtest.h>

#include <malloc.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "alpha/alpha_index.h"
#include "core/database.h"
#include "core/executor.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"
#include "reach/reachability_index.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "shard/partition.h"
#include "shard/sharded_database.h"

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

TEST(ServiceProtocolTest, QueryRequestRoundTrips) {
  ServiceRequest request;
  request.type = MessageType::kQuery;
  request.query.algorithm = KspAlgorithm::kSpp;
  request.query.k = 7;
  request.query.location = {12.5, -3.25};
  request.query.deadline_ms = 1500;
  request.query.keywords = {"museum", "baroque", ""};
  std::string payload;
  EncodeRequest(request, &payload);

  ServiceRequest decoded;
  ASSERT_TRUE(DecodeRequest(payload, &decoded).ok());
  EXPECT_EQ(decoded.type, MessageType::kQuery);
  EXPECT_EQ(decoded.query.algorithm, KspAlgorithm::kSpp);
  EXPECT_EQ(decoded.query.k, 7u);
  EXPECT_EQ(decoded.query.location.x, 12.5);
  EXPECT_EQ(decoded.query.location.y, -3.25);
  EXPECT_EQ(decoded.query.deadline_ms, 1500u);
  EXPECT_EQ(decoded.query.keywords, request.query.keywords);
}

TEST(ServiceProtocolTest, ResponseRoundTripsBothShapes) {
  ServiceResponse ok;
  ok.generation = 3;
  ok.entries.push_back({42, 2.0, 7.5, 15.0});
  ok.total_ms = 1.25;
  ok.body = "{\"x\": 1}";
  std::string payload;
  EncodeResponse(ok, &payload);
  ServiceResponse decoded;
  ASSERT_TRUE(DecodeResponse(payload, &decoded).ok());
  EXPECT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.generation, 3u);
  ASSERT_EQ(decoded.entries.size(), 1u);
  EXPECT_EQ(decoded.entries[0].place, 42u);
  EXPECT_EQ(decoded.entries[0].looseness, 2.0);
  EXPECT_EQ(decoded.entries[0].spatial_distance, 7.5);
  EXPECT_EQ(decoded.entries[0].score, 15.0);
  EXPECT_EQ(decoded.body, ok.body);

  ServiceResponse err;
  err.code = StatusCode::kUnavailable;
  err.message = "queue full";
  err.retry_after_ms = 25;
  payload.clear();
  EncodeResponse(err, &payload);
  ASSERT_TRUE(DecodeResponse(payload, &decoded).ok());
  EXPECT_EQ(decoded.code, StatusCode::kUnavailable);
  EXPECT_EQ(decoded.message, "queue full");
  EXPECT_EQ(decoded.retry_after_ms, 25u);
}

TEST(ServiceProtocolTest, MalformedPayloadsAreRejected) {
  ServiceRequest decoded;
  EXPECT_FALSE(DecodeRequest("", &decoded).ok());
  EXPECT_FALSE(DecodeRequest(std::string(1, '\x2A'), &decoded).ok());
  // Truncated query frame.
  ServiceRequest request;
  request.type = MessageType::kQuery;
  request.query.keywords = {"a"};
  std::string payload;
  EncodeRequest(request, &payload);
  EXPECT_FALSE(
      DecodeRequest(std::string_view(payload).substr(0, payload.size() - 1),
                    &decoded)
          .ok());
  // Trailing garbage.
  payload.push_back('x');
  EXPECT_FALSE(DecodeRequest(payload, &decoded).ok());
}

class ServiceEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kb_ = MakeKb(500);
    auto db = std::make_shared<KspDatabase>(kb_.get());
    db->PrepareAll(3);
    db_ = db;
    ServerOptions options;
    options.num_workers = 2;
    server_ = std::make_unique<KspServer>(kb_.get(), KspOptions(), options);
    ASSERT_TRUE(server_->ServeDatabase(db).ok());
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
    QueryGenOptions qopt;
    qopt.num_keywords = 3;
    qopt.k = 4;
    qopt.seed = 11;
    queries_ = GenerateQueries(*kb_, QueryClass::kOriginal, qopt, 6);
    ASSERT_FALSE(queries_.empty());
  }

  void TearDown() override { server_->Stop(); }

  Result<KspClient> Connect() {
    return KspClient::Connect("127.0.0.1", server_->port());
  }

  std::unique_ptr<KnowledgeBase> kb_;
  std::shared_ptr<KspDatabase> db_;
  std::unique_ptr<KspServer> server_;
  std::vector<KspQuery> queries_;
};

TEST_F(ServiceEndToEndTest, QueriesMatchDirectExecution) {
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  QueryExecutor oracle(db_.get());
  for (const KspQuery& query : queries_) {
    auto expected = oracle.ExecuteSp(query, nullptr);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto response = client->Query(KspAlgorithm::kSp, query.location,
                                  KeywordStrings(*kb_, query), query.k);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->ok()) << response->message;
    EXPECT_EQ(response->generation, 1u);
    ASSERT_EQ(response->entries.size(), expected->entries.size());
    for (size_t i = 0; i < expected->entries.size(); ++i) {
      EXPECT_EQ(response->entries[i].place, expected->entries[i].place);
      EXPECT_EQ(response->entries[i].looseness,
                expected->entries[i].looseness);
      EXPECT_EQ(response->entries[i].score, expected->entries[i].score);
    }
  }
}

TEST_F(ServiceEndToEndTest, HealthReportsServingStateAndBackend) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  auto response = client->Health();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->ok());
  EXPECT_NE(response->body.find("\"status\": \"serving\""),
            std::string::npos)
      << response->body;
  EXPECT_NE(response->body.find("\"storage_backend\": \"ok\""),
            std::string::npos)
      << response->body;
  EXPECT_NE(response->body.find("\"serving_generation\": 1"),
            std::string::npos)
      << response->body;
  EXPECT_NE(response->body.find("\"queue_capacity\""), std::string::npos);
}

TEST_F(ServiceEndToEndTest, MetricsExposeServerCounters) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  auto query = client->Query(KspAlgorithm::kSp, queries_[0].location,
                             KeywordStrings(*kb_, queries_[0]),
                             queries_[0].k);
  ASSERT_TRUE(query.ok());
  auto response = client->Metrics();
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->ok());
  EXPECT_NE(response->body.find("ksp_server_requests_total"),
            std::string::npos);
  EXPECT_NE(response->body.find("ksp_queries_total"), std::string::npos)
      << "worker query metrics should land in the server registry";
}

TEST_F(ServiceEndToEndTest, ExplainReturnsJsonWithBackendStatus) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  auto response = client->Explain(KspAlgorithm::kSp, queries_[0].location,
                                  KeywordStrings(*kb_, queries_[0]),
                                  queries_[0].k);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->ok()) << response->message;
  EXPECT_NE(response->body.find("\"candidates\""), std::string::npos);
  EXPECT_NE(response->body.find("\"storage_backend\": \"ok\""),
            std::string::npos)
      << response->body;
}

TEST_F(ServiceEndToEndTest, ExpiredDeadlineIsTyped) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  // 1 ms must elapse before a worker first checks the token under any
  // scheduling; queue admission keeps the request valid regardless.
  auto response =
      client->Query(KspAlgorithm::kSp, queries_[0].location,
                    KeywordStrings(*kb_, queries_[0]), queries_[0].k,
                    /*deadline_ms=*/1);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  // Tiny queries can still beat a 1 ms deadline; accept either a full
  // answer or the typed deadline error — never anything else.
  if (!response->ok()) {
    EXPECT_EQ(response->code, StatusCode::kDeadlineExceeded)
        << response->message;
  }
}

TEST_F(ServiceEndToEndTest, DeadlinePastTheClockRangeIsNoDeadline) {
  // The wire carries deadline_ms as u64. Above about 9.2e12 ms, now +
  // deadline no longer fits the clock's int64 nanoseconds; such a
  // deadline is none, and the query must get its answer.
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  QueryExecutor oracle(db_.get());
  const KspQuery& query = queries_[0];
  auto expected = oracle.ExecuteSp(query, nullptr);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  for (const uint64_t deadline_ms :
       {uint64_t{1} << 62, std::numeric_limits<uint64_t>::max()}) {
    auto response = client->Query(KspAlgorithm::kSp, query.location,
                                  KeywordStrings(*kb_, query), query.k,
                                  deadline_ms);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->ok())
        << "deadline_ms " << deadline_ms << ": " << response->message;
    ASSERT_EQ(response->entries.size(), expected->entries.size());
    for (size_t i = 0; i < expected->entries.size(); ++i) {
      EXPECT_EQ(response->entries[i].place, expected->entries[i].place);
      EXPECT_EQ(response->entries[i].score, expected->entries[i].score);
    }
  }
}

TEST_F(ServiceEndToEndTest, NonFiniteLocationIsInvalidArgument) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  const KspQuery& query = queries_[0];
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNan, kInf, -kInf}) {
    for (const bool on_x : {true, false}) {
      Point location = query.location;
      (on_x ? location.x : location.y) = bad;
      for (const KspAlgorithm algorithm :
           {KspAlgorithm::kBsp, KspAlgorithm::kSpp, KspAlgorithm::kSp,
            KspAlgorithm::kTa, KspAlgorithm::kKeywordOnly}) {
        SCOPED_TRACE(::testing::Message()
                     << KspAlgorithmName(algorithm) << " "
                     << (on_x ? "x" : "y") << " = " << bad);
        auto response = client->Query(algorithm, location,
                                      KeywordStrings(*kb_, query), query.k);
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        EXPECT_EQ(response->code, StatusCode::kInvalidArgument)
            << response->message;
        EXPECT_TRUE(response->entries.empty());
      }
      auto explain = client->Explain(KspAlgorithm::kSp, location,
                                     KeywordStrings(*kb_, query), query.k);
      ASSERT_TRUE(explain.ok()) << explain.status().ToString();
      EXPECT_EQ(explain->code, StatusCode::kInvalidArgument)
          << explain->message;
    }
  }
  // The connection and the workers' executors still serve.
  auto valid = client->Query(KspAlgorithm::kSp, query.location,
                             KeywordStrings(*kb_, query), query.k);
  ASSERT_TRUE(valid.ok());
  EXPECT_TRUE(valid->ok()) << valid->message;
  EXPECT_FALSE(valid->entries.empty());
}

TEST_F(ServiceEndToEndTest, MalformedAndOversizedFramesAreFastRejected) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  // Keywords over the server limit encode fine but fail validation:
  // a typed InvalidArgument comes back and the connection survives.
  ServiceRequest too_many;
  too_many.type = MessageType::kQuery;
  too_many.query.keywords.assign(65, "kw");
  auto response = client->Call(too_many);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, StatusCode::kInvalidArgument);
  // The connection survived the typed rejection.
  auto health = client->Health();
  ASSERT_TRUE(health.ok());
  EXPECT_TRUE(health->ok());

  // A frame announcing more than max_frame_bytes is answered with an
  // error and the connection dropped.
  ServerOptions tiny;
  tiny.max_frame_bytes = 64;
  tiny.num_workers = 1;
  KspServer small_server(kb_.get(), KspOptions(), tiny);
  ASSERT_TRUE(small_server.Start().ok());
  auto big_client = KspClient::Connect("127.0.0.1", small_server.port());
  ASSERT_TRUE(big_client.ok());
  ServiceRequest big;
  big.type = MessageType::kQuery;
  big.query.keywords.assign(30, std::string(16, 'x'));
  auto rejected = big_client->Call(big);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected->code, StatusCode::kInvalidArgument);
  small_server.Stop();
}

TEST_F(ServiceEndToEndTest, UnknownKeywordYieldsEmptyResult) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  auto response = client->Query(
      KspAlgorithm::kSp, queries_[0].location,
      {"no-such-keyword-in-any-vocabulary"}, /*k=*/3);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->ok()) << response->message;
  EXPECT_TRUE(response->entries.empty());
}

TEST(ServiceServerTest, DegradedBackendSurfacesInHealthAndExplain) {
  auto kb = MakeKb(200);
  KspOptions db_options;
  db_options.backend = StorageBackend::kDisk;
  // Spilling under /dev/null cannot succeed: preparation leaves the
  // in-memory indexes intact but parks a sticky backend error.
  db_options.spill_directory = "/dev/null/ksp-service-degraded";
  auto db = std::make_shared<KspDatabase>(kb.get(), db_options);
  db->PrepareAll(3);
  ASSERT_TRUE(db->has_rtree());
  ASSERT_FALSE(db->storage_backend_status().ok());

  ServerOptions options;
  options.num_workers = 1;
  KspServer server(kb.get(), db_options, options);
  ASSERT_TRUE(server.ServeDatabase(db).ok());
  ASSERT_TRUE(server.Start().ok());
  auto client = KspClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  auto health = client->Health();
  ASSERT_TRUE(health.ok());
  EXPECT_NE(health->body.find("\"status\": \"degraded\""),
            std::string::npos)
      << health->body;
  EXPECT_EQ(health->body.find("\"storage_backend\": \"ok\""),
            std::string::npos)
      << health->body;

  auto explain = client->Explain(KspAlgorithm::kSp, {0, 0}, {"a"}, 2);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  ASSERT_TRUE(explain->ok()) << explain->message;
  EXPECT_NE(explain->body.find("storage_backend_error"), std::string::npos)
      << explain->body;

  // Actual queries are refused with a typed error, not wrong answers.
  auto query = client->Query(KspAlgorithm::kSp, {0, 0}, {"a"}, 2);
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(query->ok());
  server.Stop();
}

// The two memory-resident index budgets are gauges, set on each
// install: summed over a sharded generation's shards, with the one
// reachability index the shards share counted once.
TEST(ServiceServerTest, IndexByteGaugesFollowEachInstall) {
  auto kb = MakeKb(500);
  KspServer server(kb.get(), KspOptions(), ServerOptions());
  auto gauge = [&server](const char* name) {
    return server.metrics()->Snapshot().gauges.at(name);
  };

  auto db = std::make_shared<KspDatabase>(kb.get());
  db->PrepareAll(3);
  ASSERT_TRUE(server.ServeDatabase(db).ok());
  EXPECT_EQ(gauge("ksp_server_alpha_index_bytes"),
            static_cast<double>(db->alpha_index()->SizeBytes()));
  EXPECT_EQ(gauge("ksp_server_reach_index_bytes"),
            static_cast<double>(
                db->reachability_index()->MemoryUsageBytes()));

  auto sharded = ShardedKspDatabase::Build(kb.get(), KspOptions(),
                                           StrPartition(*kb, 4), 3);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  uint64_t alpha_bytes = 0;
  const ReachabilityIndex* shared_reach = nullptr;
  for (uint32_t i = 0; i < (*sharded)->num_shards(); ++i) {
    const KspDatabase* shard = (*sharded)->shard(i);
    ASSERT_NE(shard, nullptr);
    alpha_bytes += shard->alpha_index()->SizeBytes();
    if (shared_reach == nullptr) shared_reach = shard->reachability_index();
    ASSERT_EQ(shard->reachability_index(), shared_reach);
  }
  ASSERT_NE(shared_reach, nullptr);
  ASSERT_TRUE(
      server.ServeShardedDatabase(std::shared_ptr(std::move(*sharded)))
          .ok());
  EXPECT_EQ(gauge("ksp_server_alpha_index_bytes"),
            static_cast<double>(alpha_bytes));
  EXPECT_EQ(gauge("ksp_server_reach_index_bytes"),
            static_cast<double>(shared_reach->MemoryUsageBytes()));

  auto rtree_only = std::make_shared<KspDatabase>(kb.get());
  rtree_only->BuildRTree();
  ASSERT_TRUE(server.ServeDatabase(rtree_only).ok());
  EXPECT_EQ(gauge("ksp_server_alpha_index_bytes"), 0.0);
  EXPECT_EQ(gauge("ksp_server_reach_index_bytes"), 0.0);
}

/// VmSize from /proc/self/status, in kB (0 if unreadable).
uint64_t VmSizeKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoull(line.substr(7));
  }
  return 0;
}

// Each connection runs on its own thread, and a thread that has exited
// but was never joined keeps its stack mapped. A server that joined its
// connection threads only in Stop() grew by a stack (8 MiB of address
// space) per connection it ever accepted: 1.6 GB over 200 connections.
// One malloc arena keeps VmSize a measure of stacks: glibc otherwise
// reserves 64 MiB of address space per arena, one more each time more
// connection threads overlap than ever before. (A sanitizer's allocator
// has no such arenas and refuses the setting.)
TEST(ServiceServerTest, FinishedConnectionThreadsAreReaped) {
  ::mallopt(M_ARENA_MAX, 1);
  auto kb = MakeKb(200);
  ServerOptions options;
  options.num_workers = 1;
  KspServer server(kb.get(), KspOptions(), options);
  ASSERT_TRUE(server.Start().ok());
  auto round_trip = [&server] {
    auto client = KspClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto health = client->Health();
    ASSERT_TRUE(health.ok()) << health.status().ToString();
  };
  round_trip();
  const uint64_t baseline_kb = VmSizeKb();
  ASSERT_GT(baseline_kb, 0u);
  for (int i = 1; i < 200; ++i) {
    round_trip();
    if (HasFatalFailure()) return;
  }
  EXPECT_LE(VmSizeKb(), baseline_kb + 64 * 1024)
      << "VmSize grew from " << baseline_kb << " kB over 199 connections";
  server.Stop();
}

// Only workers answer admitted queries and enforce their deadlines: a
// server without one would leave its first query, and then Stop, waiting
// forever. Start refuses it before binding; no query is sent.
TEST(ServiceServerTest, ZeroWorkersRefusedAtStart) {
  auto kb = MakeKb(200);
  ServerOptions options;
  options.num_workers = 0;
  KspServer server(kb.get(), KspOptions(), options);
  const Status status = server.Start();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_EQ(server.port(), 0);
  server.Stop();
}

TEST(ServiceServerTest, NoDatabaseMeansUnavailable) {
  auto kb = MakeKb(200);
  ServerOptions options;
  options.num_workers = 1;
  KspServer server(kb.get(), KspOptions(), options);
  ASSERT_TRUE(server.Start().ok());
  auto client = KspClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto response = client->Query(KspAlgorithm::kSp, {0, 0}, {"a"}, 1);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kUnavailable);
  EXPECT_GT(response->retry_after_ms, 0u);
  auto health = client->Health();
  ASSERT_TRUE(health.ok());
  EXPECT_NE(health->body.find("no_database"), std::string::npos);
  server.Stop();
}

}  // namespace
}  // namespace ksp
