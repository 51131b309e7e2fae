// Cooperative cancellation / deadline exactness (DESIGN.md §11). The
// contract under test: a tripped CancellationToken makes Execute* return
// kCancelled / kDeadlineExceeded with stats.completed == false and NO
// result — never a partial top-k presented as complete — and leaves the
// executor scratch so clean that a query on other keywords, and then
// a re-run of the same query, are byte-identical to never-cancelled
// runs, on both storage backends, with no leaked buffer-pool pins, no
// keyword bit left set and no poisoned semantic-cache entry.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "core/database.h"
#include "core/executor.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"

namespace ksp {
namespace {

using ExecuteFn = Result<KspResult> (QueryExecutor::*)(const KspQuery&,
                                                       QueryStats*);

struct NamedAlgorithm {
  const char* name;
  ExecuteFn fn;
};

constexpr NamedAlgorithm kAlgorithms[] = {
    {"BSP", &QueryExecutor::ExecuteBsp},
    {"SPP", &QueryExecutor::ExecuteSpp},
    {"SP", &QueryExecutor::ExecuteSp},
    {"TA", &QueryExecutor::ExecuteTa},
    {"KW", &QueryExecutor::ExecuteKeywordOnly},
};

std::unique_ptr<KnowledgeBase> MakeKb(uint32_t places, uint32_t seed = 7) {
  SyntheticProfile profile = SyntheticProfile::DBpediaLike(places);
  profile.seed = seed;
  auto kb = GenerateKnowledgeBase(profile);
  EXPECT_TRUE(kb.ok()) << kb.status().ToString();
  return std::move(*kb);
}

std::vector<KspQuery> MakeQueries(const KnowledgeBase& kb, size_t count) {
  QueryGenOptions qopt;
  qopt.num_keywords = 3;
  qopt.k = 4;
  qopt.seed = 23;
  return GenerateQueries(kb, QueryClass::kOriginal, qopt, count);
}

/// The first of `queries` after queries[0] that shares no keyword with
/// it. Run right after a cancelled queries[0], it would read any
/// keyword bit the cancelled run left set as one of its own.
KspQuery DisjointFromFirst(const std::vector<KspQuery>& queries) {
  const std::vector<TermId>& first = queries.front().keywords;
  for (size_t i = 1; i < queries.size(); ++i) {
    const bool shared =
        std::ranges::any_of(queries[i].keywords, [&](TermId t) {
          return std::ranges::find(first, t) != first.end();
        });
    if (!shared) return queries[i];
  }
  ADD_FAILURE() << "no query disjoint from the first";
  return queries.front();
}

void ExpectSameResult(const KspResult& got, const KspResult& want,
                      const std::string& context) {
  ASSERT_EQ(got.entries.size(), want.entries.size()) << context;
  for (size_t i = 0; i < got.entries.size(); ++i) {
    EXPECT_EQ(got.entries[i].place, want.entries[i].place) << context;
    EXPECT_EQ(got.entries[i].looseness, want.entries[i].looseness)
        << context;
    EXPECT_EQ(got.entries[i].spatial_distance,
              want.entries[i].spatial_distance)
        << context;
    EXPECT_EQ(got.entries[i].score, want.entries[i].score) << context;
    // The materialized TQSP too: keyword-only ranks by the looseness
    // stream, so only its trees read the keyword masks.
    const SemanticPlaceTree& got_tree = got.entries[i].tree;
    const SemanticPlaceTree& want_tree = want.entries[i].tree;
    EXPECT_EQ(got_tree.looseness, want_tree.looseness) << context;
    ASSERT_EQ(got_tree.matches.size(), want_tree.matches.size()) << context;
    for (size_t m = 0; m < want_tree.matches.size(); ++m) {
      EXPECT_EQ(got_tree.matches[m].vertex, want_tree.matches[m].vertex)
          << context;
      EXPECT_EQ(got_tree.matches[m].distance, want_tree.matches[m].distance)
          << context;
    }
  }
}

/// Cancels a query at every feasible check index until cancellation stops
/// biting. After each cancellation it runs `other` (which shares no
/// keyword with `query`) and then `query` again, comparing both against
/// their uncancelled references. Exercises every phase a check can land
/// in: early checks hit the first BFS, later ones the final candidates.
void RunCancellationSweep(KspDatabase* db, const KspQuery& query,
                          const KspQuery& other,
                          const NamedAlgorithm& algorithm) {
  QueryExecutor executor(db);

  auto reference = (executor.*algorithm.fn)(query, nullptr);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  auto other_reference = (executor.*algorithm.fn)(other, nullptr);
  ASSERT_TRUE(other_reference.ok()) << other_reference.status().ToString();
  ASSERT_FALSE(other_reference->entries.empty()) << algorithm.name;

  CancellationToken token;
  executor.set_cancellation(&token);
  uint64_t cancellations = 0;
  // Sparse sweep: dense early (phase boundaries cluster there), then
  // exponential — total checks per query run in the hundreds at most.
  for (uint64_t trip = 1;; trip = trip < 16 ? trip + 1 : trip * 2) {
    // Drop the result-layer entry from the previous rerun (and the
    // reference run), or the sweep would be served from cache before a
    // single token check. The cancelled attempt below then repopulates
    // the dg layer — any entry it inserts is exactly the poisoning
    // hazard the rerun comparison is here to catch.
    if (db->semantic_cache() != nullptr) db->semantic_cache()->Invalidate();
    token.Reset();
    token.CancelAfterChecks(trip);
    QueryStats stats;
    auto cancelled = (executor.*algorithm.fn)(query, &stats);
    token.Reset();  // Disarm before the verification run.
    const std::string context =
        std::string(algorithm.name) + " trip=" + std::to_string(trip);
    if (cancelled.ok()) {
      // The token no longer fires inside the run: the sweep is done.
      ExpectSameResult(*cancelled, *reference, context + " (uncancelled)");
      break;
    }
    ++cancellations;
    EXPECT_TRUE(cancelled.status().IsCancelled()) << context << ": "
        << cancelled.status().ToString();
    EXPECT_FALSE(stats.completed) << context;
    // No keyword bit outlives its query: the next query, on other
    // keywords, answers as if the cancelled one never ran. It runs
    // every BFS (the cache holds no entry for its keywords) and evicts
    // nothing the cancelled run cached for the rerun below to catch.
    QueryStats other_stats;
    auto other_run = (executor.*algorithm.fn)(other, &other_stats);
    ASSERT_TRUE(other_run.ok())
        << context << ": " << other_run.status().ToString();
    ExpectSameResult(*other_run, *other_reference, context + " (other)");
    EXPECT_EQ(other_stats.cache_evictions, 0u) << context;
    // Exactness: a re-run must be byte-identical to a run that never
    // saw a cancellation (no poisoned scratch, no stale cache).
    QueryStats rerun_stats;
    auto rerun = (executor.*algorithm.fn)(query, &rerun_stats);
    ASSERT_TRUE(rerun.ok()) << context << ": " << rerun.status().ToString();
    EXPECT_TRUE(rerun_stats.completed) << context;
    ExpectSameResult(*rerun, *reference, context + " (rerun)");
  }
  executor.set_cancellation(nullptr);
  EXPECT_GT(cancellations, 0u)
      << algorithm.name << ": the sweep never landed a cancellation";
}

TEST(CancellationTest, TokenTripsAtRequestedCheck) {
  CancellationToken token;
  EXPECT_TRUE(token.Check().ok());
  token.CancelAfterChecks(3);        // Also resets the check counter.
  EXPECT_TRUE(token.Check().ok());   // check #1
  EXPECT_TRUE(token.Check().ok());   // check #2
  EXPECT_FALSE(token.Check().ok());  // check #3 trips
  EXPECT_TRUE(token.Check().IsCancelled());
  token.Reset();
  EXPECT_TRUE(token.Check().ok());
}

TEST(CancellationTest, DeadlineTripsAndIsSticky) {
  CancellationToken token;
  token.set_deadline_after_ms(0);  // Already expired.
  EXPECT_TRUE(token.Check().IsDeadlineExceeded());
  EXPECT_TRUE(token.Check().IsDeadlineExceeded());
  token.clear_deadline();
  EXPECT_TRUE(token.Check().ok());
}

TEST(CancellationTest, DeadlinePastTheClockRangeIsNoDeadline) {
  // now + ms in int64 nanoseconds overflows above about 9.2e12 ms; the
  // sum saturates to "no deadline" instead of wrapping into the past.
  for (const int64_t ms :
       {int64_t{9'300'000'000'000}, int64_t{1} << 62,
        std::numeric_limits<int64_t>::max()}) {
    CancellationToken token;
    token.set_deadline_after_ms(ms);
    EXPECT_TRUE(token.Check().ok()) << ms;
  }
  // An ordinary deadline still arms, and a negative one means now.
  CancellationToken token;
  token.set_deadline_after_ms(60'000);
  EXPECT_TRUE(token.Check().ok());
  token.set_deadline_after_ms(-5);
  EXPECT_TRUE(token.Check().IsDeadlineExceeded());
  token.set_deadline_after_ms(std::numeric_limits<int64_t>::min());
  EXPECT_TRUE(token.Check().IsDeadlineExceeded());
}

TEST(CancellationTest, ExpiredDeadlineFailsQueryWithPartialStats) {
  auto kb = MakeKb(300);
  KspDatabase db(kb.get());
  db.PrepareAll(3);
  const auto queries = MakeQueries(*kb, 1);
  ASSERT_FALSE(queries.empty());

  QueryExecutor executor(&db);
  CancellationToken token;
  token.set_deadline_after_ms(0);
  executor.set_cancellation(&token);
  QueryStats stats;
  auto result = executor.ExecuteSp(queries[0], &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  EXPECT_FALSE(stats.completed);
}

TEST(CancellationTest, RerunAfterCancelIsExactOnMemoryBackend) {
  auto kb = MakeKb(500);
  KspOptions options;
  options.cache_budget_bytes = 256 * 1024;  // Cache on: catches poisoning.
  KspDatabase db(kb.get(), options);
  db.PrepareAll(3);
  const auto queries = MakeQueries(*kb, 8);
  ASSERT_GE(queries.size(), 2u);
  const KspQuery other = DisjointFromFirst(queries);

  for (const NamedAlgorithm& algorithm : kAlgorithms) {
    RunCancellationSweep(&db, queries[0], other, algorithm);
  }
}

TEST(CancellationTest, RerunAfterCancelIsExactOnDiskBackendAndPinsDrop) {
  auto kb = MakeKb(400);
  KspOptions options;
  options.backend = StorageBackend::kDisk;
  options.buffer_pool_budget_bytes = 1 << 20;
  options.cache_budget_bytes = 128 * 1024;
  KspDatabase db(kb.get(), options);
  db.PrepareAll(3);
  ASSERT_TRUE(db.storage_backend_status().ok())
      << db.storage_backend_status().ToString();
  ASSERT_NE(db.buffer_pool(), nullptr);
  const auto queries = MakeQueries(*kb, 8);
  ASSERT_GE(queries.size(), 2u);
  const KspQuery other = DisjointFromFirst(queries);

  for (const NamedAlgorithm& algorithm : kAlgorithms) {
    RunCancellationSweep(&db, queries[0], other, algorithm);
    // A cancelled BFS must not leak page pins: a pinned frame would be
    // unevictable forever and eventually wedge the pool.
    EXPECT_EQ(db.buffer_pool()->GetStats().pinned_pages, 0u)
        << algorithm.name;
  }
}

TEST(CancellationTest, CancelledBfsDoesNotPoisonNegativeCache) {
  // A BFS cut short must not record "unreachable" for keywords it simply
  // had not reached yet — that entry would silently drop places from
  // every later query. Cancel mid-BFS repeatedly, then compare a cached
  // run against a cache-free database.
  auto kb = MakeKb(500);
  KspOptions cached_options;
  cached_options.cache_budget_bytes = kCacheUnlimited;
  KspDatabase cached_db(kb.get(), cached_options);
  cached_db.PrepareAll(3);
  KspDatabase plain_db(kb.get());
  plain_db.PrepareAll(3);

  const auto queries = MakeQueries(*kb, 4);
  ASSERT_FALSE(queries.empty());

  QueryExecutor cached_exec(&cached_db);
  CancellationToken token;
  cached_exec.set_cancellation(&token);
  for (const KspQuery& query : queries) {
    for (uint64_t trip = 1; trip <= 40; trip += 3) {
      token.Reset();
      token.CancelAfterChecks(trip);
      (void)cached_exec.ExecuteSpp(query, nullptr);
    }
  }
  token.Reset();
  cached_exec.set_cancellation(nullptr);

  QueryExecutor plain_exec(&plain_db);
  for (const KspQuery& query : queries) {
    auto cached = cached_exec.ExecuteSpp(query, nullptr);
    auto plain = plain_exec.ExecuteSpp(query, nullptr);
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    ExpectSameResult(*cached, *plain, "post-cancellation cached query");
  }
}

TEST(CancellationTest, CancellationsAreCounted) {
  auto kb = MakeKb(300);
  KspDatabase db(kb.get());
  db.PrepareAll(3);
  const auto queries = MakeQueries(*kb, 1);
  ASSERT_FALSE(queries.empty());

  MetricsRegistry registry;
  QueryExecutor executor(&db);
  executor.set_metrics(&registry);
  CancellationToken token;
  executor.set_cancellation(&token);
  token.CancelAfterChecks(1);
  QueryStats stats;
  auto result = executor.ExecuteSp(queries[0], &stats);
  ASSERT_FALSE(result.ok());
  const auto snapshot = registry.Snapshot();
  const auto it = snapshot.counters.find("ksp_query_cancellations_total");
  ASSERT_NE(it, snapshot.counters.end());
  EXPECT_EQ(it->second, 1u);
}

}  // namespace
}  // namespace ksp
