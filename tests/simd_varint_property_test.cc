// Differential fuzz of the SIMD varint-delta decoder (common/
// simd_varint.h) against the scalar reference: every supported ISA
// level must produce byte-identical output, statuses, and consumed
// positions on 10k seeded random cases per level — including empty
// lists, single elements, max-size deltas, dense one-byte runs (the
// vector fast path), corrupt/truncated input, and lists long enough to
// straddle buffer-pool page boundaries. A disk-postings section
// additionally pins identical buffer-pool read patterns across levels:
// the decode must never influence what the pool fetches.
//
// Runs under ASan/UBSan in CI (the `property` ctest label): the 16/32-
// byte vector loads must be proven in-bounds, not assumed.

#include "common/simd_varint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/varint.h"
#include "core/accessors.h"
#include "storage/shared_buffer_pool.h"
#include "text/document_store.h"
#include "text/inverted_index.h"

namespace ksp {
namespace {

/// The reference decoder: the historic per-value loop, written here
/// independently of the production scalar path.
Status ReferenceDecode(std::string_view src, size_t* pos, uint64_t count,
                       uint64_t limit, std::vector<VertexId>* out) {
  uint64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t delta = 0;
    KSP_RETURN_NOT_OK(GetVarint64(src, pos, &delta));
    prev = (i == 0) ? delta : prev + delta;
    if (limit != kVarintNoLimit && prev >= limit) {
      return Status::Corruption("range");
    }
    out->push_back(static_cast<VertexId>(prev));
  }
  return Status::OK();
}

struct Case {
  std::string encoded;   // Count varint followed by the deltas.
  uint64_t count = 0;
  size_t start = 0;      // Decode position after the count varint.
  uint64_t limit = kVarintNoLimit;
};

/// One random case: a delta-encoded list biased toward the shapes that
/// matter — long one-byte runs (vector fast path), multi-byte spikes,
/// max-u64 deltas (wrap + over-long encodings), and short/empty lists.
Case MakeCase(std::mt19937_64* rng) {
  Case c;
  const uint32_t shape = static_cast<uint32_t>((*rng)() % 100);
  size_t n;
  if (shape < 5) {
    n = 0;  // Empty list.
  } else if (shape < 15) {
    n = 1;  // Single element.
  } else if (shape < 40) {
    n = 1 + (*rng)() % 30;  // Short mixed list.
  } else {
    n = 30 + (*rng)() % 400;  // Long list: exercises 16/32-byte blocks.
  }
  std::string body;
  for (size_t i = 0; i < n; ++i) {
    uint64_t delta;
    const uint32_t kind = static_cast<uint32_t>((*rng)() % 100);
    if (kind < 70) {
      delta = (*rng)() % 128;  // One-byte varint (fast-path fodder).
    } else if (kind < 90) {
      delta = 128 + (*rng)() % 100000;  // Multi-byte.
    } else if (kind < 97) {
      delta = (*rng)();  // Anywhere in u64.
    } else {
      delta = ~uint64_t{0};  // Max delta: 10-byte varint + u64 wrap.
    }
    PutVarint64(&body, delta);
  }
  c.count = n;
  PutVarint64(&c.encoded, n);
  c.start = c.encoded.size();
  c.encoded += body;

  const uint32_t lim = static_cast<uint32_t>((*rng)() % 100);
  if (lim < 50) {
    c.limit = kVarintNoLimit;                 // Postings contract.
  } else if (lim < 80) {
    c.limit = 1 + (*rng)() % (1u << 20);      // Graph contract, tight.
  } else {
    c.limit = uint64_t{1} << 32;              // Graph contract, max ids.
  }

  // 10% of cases: corrupt the tail (truncation) so the error paths are
  // fuzzed too, not just the happy path.
  if ((*rng)() % 10 == 0 && c.encoded.size() > c.start) {
    c.encoded.resize(c.start + (*rng)() % (c.encoded.size() - c.start));
  }
  return c;
}

TEST(SimdVarintPropertyTest, AllIsaLevelsMatchReferenceOn10kSeededCases) {
  const std::vector<VarintIsa> levels = SupportedVarintIsas();
  ASSERT_FALSE(levels.empty());
  ASSERT_EQ(levels.front(), VarintIsa::kScalar);
  for (VarintIsa isa : levels) {
    SCOPED_TRACE(VarintIsaName(isa));
    std::mt19937_64 rng(0xC0FFEE);  // Same cases for every level.
    for (int t = 0; t < 10000; ++t) {
      const Case c = MakeCase(&rng);

      std::vector<VertexId> want;
      size_t want_pos = c.start;
      const Status want_st =
          ReferenceDecode(c.encoded, &want_pos, c.count, c.limit, &want);

      SetVarintIsaForTesting(isa);
      std::vector<VertexId> got;
      size_t got_pos = c.start;
      const Status got_st = DecodeVarintDeltas(
          c.encoded, &got_pos, c.count, c.limit, "range", &got);
      ResetVarintIsaForTesting();

      ASSERT_EQ(want_st.ok(), got_st.ok())
          << "case " << t << ": " << want_st.ToString() << " vs "
          << got_st.ToString();
      if (want_st.ok()) {
        // Identical bytes and identical consumed span.
        ASSERT_EQ(want, got) << "case " << t;
        ASSERT_EQ(want_pos, got_pos) << "case " << t;
      } else {
        // Same status class and message; the output prefix is
        // unspecified by contract (callers discard it).
        ASSERT_EQ(want_st.code(), got_st.code()) << "case " << t;
      }
    }
  }
}

TEST(SimdVarintPropertyTest, DenseOneByteRunsHitTheFastPathExactly) {
  // A purpose-built worst/best case: thousands of one-byte deltas, the
  // shape the 16/32-byte blocks are built for, across lengths around
  // every block-size boundary (15, 16, 17, 31, 32, 33, ...).
  for (size_t n : {15u, 16u, 17u, 31u, 32u, 33u, 63u, 64u, 65u, 4096u}) {
    std::string encoded;
    PutVarint64(&encoded, n);
    const size_t start = encoded.size();
    for (size_t i = 0; i < n; ++i) {
      PutVarint64(&encoded, (i * 7) % 128);
    }
    std::vector<VertexId> want;
    size_t want_pos = start;
    ASSERT_TRUE(ReferenceDecode(encoded, &want_pos, n, kVarintNoLimit,
                                &want)
                    .ok());
    for (VarintIsa isa : SupportedVarintIsas()) {
      SetVarintIsaForTesting(isa);
      std::vector<VertexId> got;
      size_t got_pos = start;
      ASSERT_TRUE(DecodeVarintDeltas(encoded, &got_pos, n, kVarintNoLimit,
                                     nullptr, &got)
                      .ok())
          << VarintIsaName(isa) << " n=" << n;
      ResetVarintIsaForTesting();
      ASSERT_EQ(want, got) << VarintIsaName(isa) << " n=" << n;
      ASSERT_EQ(want_pos, got_pos) << VarintIsaName(isa) << " n=" << n;
    }
  }
}

TEST(SimdVarintPropertyTest, LimitViolationsErrorIdenticallyAtEveryLevel) {
  // Graph-decode contract: ids must stay < limit. Build lists whose
  // running sum crosses the limit at controlled offsets, including mid
  // one-byte-block (the vector gate must fall back, not store).
  for (size_t cross_at : {0u, 1u, 7u, 15u, 16u, 17u, 40u}) {
    std::string encoded;
    const size_t n = cross_at + 5;
    for (size_t i = 0; i < n; ++i) PutVarint64(&encoded, 10);
    const uint64_t limit = 10 * (cross_at + 1);  // Fails at index cross_at.
    for (VarintIsa isa : SupportedVarintIsas()) {
      SetVarintIsaForTesting(isa);
      std::vector<VertexId> got;
      size_t pos = 0;
      const Status st = DecodeVarintDeltas(encoded, &pos, n, limit,
                                           "id out of range", &got);
      ResetVarintIsaForTesting();
      ASSERT_FALSE(st.ok()) << VarintIsaName(isa);
      EXPECT_TRUE(st.IsCorruption()) << VarintIsaName(isa);
      EXPECT_NE(st.ToString().find("id out of range"), std::string::npos)
          << VarintIsaName(isa);
    }
  }
}

/// Disk-postings end-to-end: the same index fetched through the shared
/// buffer pool at every ISA level must yield identical posting ids AND
/// an identical pool read pattern (hits/misses per fetch) — the decoder
/// runs strictly after the page reads and must not perturb them.
TEST(SimdVarintPropertyTest, DiskPostingsReadPatternInvariantAcrossIsas) {
  // Synthetic postings: enough terms and ids that lists straddle 4 KiB
  // page boundaries in the blob.
  constexpr VertexId kNumVertices = 6000;
  constexpr TermId kNumTerms = 48;
  DocumentStoreBuilder builder;
  std::mt19937_64 rng(42);
  for (VertexId v = 0; v < kNumVertices; ++v) {
    const size_t k = 1 + rng() % 4;
    for (size_t i = 0; i < k; ++i) {
      builder.AddTerm(v, static_cast<TermId>(rng() % kNumTerms));
    }
  }
  const DocumentStore docs = builder.Finish(kNumVertices);
  const MemoryInvertedIndex memory_index =
      MemoryInvertedIndex::Build(docs, kNumTerms);

  const std::string path =
      ::testing::TempDir() + "/simd_varint_property_postings.idx";
  ASSERT_TRUE(DiskInvertedIndex::Write(memory_index, path).ok());

  struct Pattern {
    std::vector<std::vector<VertexId>> postings;
    std::vector<PageIoCounters> io;  // Per-fetch counters, in order.
  };
  auto run = [&](VarintIsa isa) -> Pattern {
    SetVarintIsaForTesting(isa);
    // A pool small enough to force eviction/refetch churn mid-workload.
    SharedBufferPool pool(/*budget_bytes=*/16 * 4096, /*page_size=*/4096);
    auto accessor = DiskPostingsAccessor::Open(path, &pool);
    EXPECT_TRUE(accessor.ok()) << accessor.status().ToString();
    Pattern pattern;
    // A deterministic fetch sequence with repeats (hits) and sweeps
    // (evictions): the pattern must reproduce exactly at every level.
    for (int round = 0; round < 3; ++round) {
      for (TermId t = 0; t < kNumTerms; ++t) {
        std::vector<VertexId> backing;
        std::span<const VertexId> view;
        PageIoCounters io;
        const Status st = (*accessor)->Fetch(t, &backing, &view, &io);
        EXPECT_TRUE(st.ok()) << st.ToString();
        pattern.postings.emplace_back(view.begin(), view.end());
        io.nanos = 0;  // Timing is not part of the pattern.
        pattern.io.push_back(io);
      }
    }
    ResetVarintIsaForTesting();
    return pattern;
  };

  const std::vector<VarintIsa> levels = SupportedVarintIsas();
  const Pattern want = run(levels.front());
  // Sanity: the workload actually decoded something and touched pages.
  uint64_t total_fetches = 0;
  size_t total_ids = 0;
  for (const PageIoCounters& io : want.io) total_fetches += io.Fetches();
  for (const auto& list : want.postings) total_ids += list.size();
  ASSERT_GT(total_fetches, 0u);
  ASSERT_GT(total_ids, 1000u);

  for (size_t l = 1; l < levels.size(); ++l) {
    const Pattern got = run(levels[l]);
    ASSERT_EQ(want.postings, got.postings) << VarintIsaName(levels[l]);
    ASSERT_EQ(want.io.size(), got.io.size()) << VarintIsaName(levels[l]);
    for (size_t i = 0; i < want.io.size(); ++i) {
      EXPECT_EQ(want.io[i].hits, got.io[i].hits)
          << VarintIsaName(levels[l]) << " fetch " << i;
      EXPECT_EQ(want.io[i].misses, got.io[i].misses)
          << VarintIsaName(levels[l]) << " fetch " << i;
      EXPECT_EQ(want.io[i].evictions, got.io[i].evictions)
          << VarintIsaName(levels[l]) << " fetch " << i;
    }
  }
}

TEST(SimdVarintPropertyTest, ActiveIsaIsTheBestSupportedLevel) {
  ResetVarintIsaForTesting();
  const std::vector<VarintIsa> levels = SupportedVarintIsas();
  EXPECT_EQ(ActiveVarintIsa(), levels.back());
#if defined(__x86_64__)
  // The CI runners and dev machines are x86-64 with at least SSE4.1;
  // make sure the vector paths are actually covered there, not silently
  // skipped by a detection bug.
  EXPECT_GE(levels.size(), 2u);
#endif
}

}  // namespace
}  // namespace ksp
