// Property test: serialize -> parse round-trips arbitrary triples,
// including hostile literal content, through the Turtle lexer.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "rdf/turtle_parser.h"

namespace ksp {
namespace {

std::string RandomIri(Rng* rng) {
  static const char* kHosts[] = {"http://a.org/", "http://b.net/x#",
                                 "https://kb.example/r/"};
  std::string iri = kHosts[rng->NextBounded(3)];
  size_t len = 1 + rng->NextBounded(12);
  for (size_t i = 0; i < len; ++i) {
    iri.push_back(static_cast<char>('a' + rng->NextBounded(26)));
  }
  return iri;
}

std::string RandomLiteral(Rng* rng) {
  // Includes characters that must be escaped.
  static const char kAlphabet[] =
      "abc XYZ 123 \"quote\" \\back\nnew\ttab\rcr";
  std::string out;
  size_t len = rng->NextBounded(30);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(kAlphabet[rng->NextBounded(sizeof(kAlphabet) - 1)]);
  }
  return out;
}

/// Parses one N-Triples line; fails unless it yields exactly one triple.
Result<Triple> ParseLine(std::string_view line) {
  std::vector<Triple> triples;
  auto count = TurtleParser().ParseString(
      line, [&](const Triple& t) { triples.push_back(t); });
  if (!count.ok()) return count.status();
  if (triples.size() != 1) {
    return Status::InvalidArgument("expected one triple, got " +
                                   std::to_string(triples.size()));
  }
  return triples[0];
}

TEST(NTriplesRoundTripTest, RandomTriplesSurviveSerialization) {
  Rng rng(2024);
  for (int trial = 0; trial < 500; ++trial) {
    Triple original;
    original.subject = RandomIri(&rng);
    original.predicate = RandomIri(&rng);
    switch (rng.NextBounded(4)) {
      case 0:
        original.object = RandomIri(&rng);
        original.object_kind = ObjectKind::kIri;
        break;
      case 1:
        original.object = RandomLiteral(&rng);
        original.object_kind = ObjectKind::kLiteral;
        break;
      case 2:
        original.object = RandomLiteral(&rng);
        original.object_kind = ObjectKind::kLiteral;
        original.language = "en";
        break;
      default:
        original.object = RandomLiteral(&rng);
        original.object_kind = ObjectKind::kLiteral;
        original.datatype = RandomIri(&rng);
        break;
    }
    std::string line = ToNTriplesLine(original);
    auto parsed = ParseLine(line);
    ASSERT_TRUE(parsed.ok())
        << parsed.status().ToString() << "\nline: " << line;
    EXPECT_EQ(*parsed, original) << "line: " << line;
  }
}

TEST(NTriplesRoundTripTest, BlankNodeRoundTrip) {
  Triple t;
  t.subject = "_:node1";
  t.predicate = "http://p";
  t.object = "_:node2";
  auto parsed = ParseLine(ToNTriplesLine(t));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, t);
}

TEST(NTriplesRoundTripTest, DocumentRoundTrip) {
  // A multi-line document round-trips through ParseString.
  Rng rng(7);
  TurtleParser parser;
  std::vector<Triple> originals;
  std::string doc;
  for (int i = 0; i < 100; ++i) {
    Triple t;
    t.subject = RandomIri(&rng);
    t.predicate = RandomIri(&rng);
    t.object = RandomLiteral(&rng);
    t.object_kind = ObjectKind::kLiteral;
    originals.push_back(t);
    doc += ToNTriplesLine(t);
    doc += "\n";
  }
  std::vector<Triple> parsed;
  auto count = parser.ParseString(doc, [&](const Triple& t) {
    parsed.push_back(t);
  });
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  ASSERT_EQ(parsed.size(), originals.size());
  for (size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i], originals[i]) << i;
  }
}

}  // namespace
}  // namespace ksp
