#include "common/varint.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"

namespace ksp {
namespace {

TEST(VarintTest, SmallValuesAreOneByte) {
  for (uint64_t v : {0ull, 1ull, 42ull, 127ull}) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(buf.size(), 1u) << v;
    size_t off = 0;
    uint64_t out = 0;
    ASSERT_TRUE(GetVarint64(buf, &off, &out).ok());
    EXPECT_EQ(out, v);
    EXPECT_EQ(off, buf.size());
  }
}

TEST(VarintTest, BoundaryValues) {
  for (uint64_t v : {128ull, 16383ull, 16384ull, (1ull << 32) - 1,
                     1ull << 32, ~0ull}) {
    std::string buf;
    PutVarint64(&buf, v);
    size_t off = 0;
    uint64_t out = 0;
    ASSERT_TRUE(GetVarint64(buf, &off, &out).ok());
    EXPECT_EQ(out, v);
  }
}

TEST(VarintTest, TruncatedInputIsCorruption) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  buf.pop_back();
  size_t off = 0;
  uint64_t out = 0;
  EXPECT_TRUE(GetVarint64(buf, &off, &out).IsCorruption());
}

TEST(VarintTest, RoundTripRandomSequence) {
  Rng rng(123);
  std::vector<uint64_t> values;
  std::string buf;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Next() >> (rng.NextBounded(64));
    values.push_back(v);
    PutVarint64(&buf, v);
  }
  size_t off = 0;
  for (uint64_t expected : values) {
    uint64_t out = 0;
    ASSERT_TRUE(GetVarint64(buf, &off, &out).ok());
    EXPECT_EQ(out, expected);
  }
  EXPECT_EQ(off, buf.size());
}

/// Decodes `bytes` at `start` with GetVarint64 and with the out-of-line
/// loop; value, offset and Status must be identical. Returns the status.
Status ExpectSameAsLoop(std::string_view bytes, size_t start) {
  size_t fast_offset = start;
  size_t loop_offset = start;
  uint64_t fast_value = 0xABCDu;
  uint64_t loop_value = 0xABCDu;
  Status fast = GetVarint64(bytes, &fast_offset, &fast_value);
  const Status loop = GetVarint64Loop(bytes, &loop_offset, &loop_value);
  EXPECT_EQ(fast.ToString(), loop.ToString());
  EXPECT_EQ(fast_offset, loop_offset);
  EXPECT_EQ(fast_value, loop_value);
  return fast;
}

TEST(VarintTest, FastPathMatchesLoopAtEdges) {
  for (uint64_t v : {0ull, 127ull, 128ull, 16383ull, 16384ull, 1ull << 63,
                     ~0ull}) {
    SCOPED_TRACE(v);
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_TRUE(ExpectSameAsLoop(buf, 0).ok());
    // Mid-buffer, with a byte before and a continuation byte after.
    const std::string framed = "\x05" + buf + "\x80";
    EXPECT_TRUE(ExpectSameAsLoop(framed, 1).ok());
    size_t offset = 1;
    uint64_t value = 0;
    ASSERT_TRUE(GetVarint64(framed, &offset, &value).ok());
    EXPECT_EQ(value, v);
    EXPECT_EQ(offset, 1 + buf.size());
  }
  // A continuation byte as the buffer's last byte.
  EXPECT_TRUE(ExpectSameAsLoop("\x80", 0).IsCorruption());
  EXPECT_TRUE(ExpectSameAsLoop("\x05\xff", 1).IsCorruption());
  // A two-byte value cut after its first byte, and an empty tail.
  std::string two;
  PutVarint64(&two, 300);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_TRUE(ExpectSameAsLoop(two.substr(0, 1), 0).IsCorruption());
  EXPECT_TRUE(ExpectSameAsLoop(two, 2).IsCorruption());
  EXPECT_TRUE(ExpectSameAsLoop("", 0).IsCorruption());
  // Ten bytes: the longest encoding the loop accepts, even when the last
  // byte carries bits past 2^64 (they are dropped, as the loop does).
  std::string ten;
  PutVarint64(&ten, ~0ull);
  ASSERT_EQ(ten.size(), 10u);
  EXPECT_TRUE(ExpectSameAsLoop(ten, 0).ok());
  EXPECT_TRUE(
      ExpectSameAsLoop(std::string(9, '\x80') + "\x7f", 0).ok());
  // Eleven bytes is over-long.
  EXPECT_TRUE(
      ExpectSameAsLoop(std::string(10, '\x80') + "\x01", 0).IsCorruption());
}

TEST(FixedTest, RoundTrip64And32) {
  std::string buf;
  PutFixed64(&buf, 0xDEADBEEFCAFEBABEull);
  PutFixed32(&buf, 0x12345678u);
  size_t off = 0;
  uint64_t v64 = 0;
  uint32_t v32 = 0;
  ASSERT_TRUE(GetFixed64(buf, &off, &v64).ok());
  ASSERT_TRUE(GetFixed32(buf, &off, &v32).ok());
  EXPECT_EQ(v64, 0xDEADBEEFCAFEBABEull);
  EXPECT_EQ(v32, 0x12345678u);
  EXPECT_EQ(off, 12u);
}

TEST(FixedTest, TruncatedFixedIsCorruption) {
  std::string buf = "abc";
  size_t off = 0;
  uint64_t v = 0;
  EXPECT_TRUE(GetFixed64(buf, &off, &v).IsCorruption());
  uint32_t w = 0;
  off = 1;
  EXPECT_TRUE(GetFixed32(buf, &off, &w).IsCorruption());
}

TEST(LengthPrefixedTest, RoundTripIncludingEmbeddedNul) {
  std::string buf;
  std::string payload("a\0b", 3);
  PutLengthPrefixed(&buf, payload);
  PutLengthPrefixed(&buf, "");
  size_t off = 0;
  std::string out;
  ASSERT_TRUE(GetLengthPrefixed(buf, &off, &out).ok());
  EXPECT_EQ(out, payload);
  ASSERT_TRUE(GetLengthPrefixed(buf, &off, &out).ok());
  EXPECT_EQ(out, "");
  EXPECT_EQ(off, buf.size());
}

TEST(LengthPrefixedTest, TruncatedBodyIsCorruption) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  buf.resize(buf.size() - 2);
  size_t off = 0;
  std::string out;
  EXPECT_TRUE(GetLengthPrefixed(buf, &off, &out).IsCorruption());
}

}  // namespace
}  // namespace ksp
