// N-Triples is Turtle's degenerate form: these cases drive every
// N-Triples shape through TurtleParser (documents) and ParseNTriplesFile
// (files, one line at a time).

#include "rdf/turtle_parser.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

namespace ksp {
namespace {

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

TEST(NTriplesParserTest, IriTriple) {
  auto r = ParseLine("<http://a.org/s> <http://a.org/p> <http://a.org/o> .");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->subject, "http://a.org/s");
  EXPECT_EQ(r->predicate, "http://a.org/p");
  EXPECT_EQ(r->object, "http://a.org/o");
  EXPECT_EQ(r->object_kind, ObjectKind::kIri);
}

TEST(NTriplesParserTest, PlainLiteral) {
  auto r = ParseLine("<http://a/s> <http://a/p> \"hello world\" .");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->object, "hello world");
  EXPECT_EQ(r->object_kind, ObjectKind::kLiteral);
  EXPECT_TRUE(r->language.empty());
  EXPECT_TRUE(r->datatype.empty());
}

TEST(NTriplesParserTest, LanguageTaggedLiteral) {
  auto r = ParseLine("<http://a/s> <http://a/p> \"bonjour\"@fr .");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->object, "bonjour");
  EXPECT_EQ(r->language, "fr");
}

TEST(NTriplesParserTest, TypedLiteral) {
  auto r = ParseLine(
      "<http://a/s> <http://a/p> "
      "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->object, "42");
  EXPECT_EQ(r->datatype, "http://www.w3.org/2001/XMLSchema#integer");
}

TEST(NTriplesParserTest, EscapesDecoded) {
  auto r = ParseLine(
      R"(<http://a/s> <http://a/p> "tab\there\nquote\"back\\slash" .)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->object, "tab\there\nquote\"back\\slash");
}

TEST(NTriplesParserTest, UnicodeEscapes) {
  auto r = ParseLine(R"(<http://a/s> <http://a/p> "café \U0001F600" .)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->object, "caf\xC3\xA9 \xF0\x9F\x98\x80");
}

TEST(NTriplesParserTest, BlankNodes) {
  auto r = ParseLine("_:b1 <http://a/p> _:b2 .");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->subject, "_:b1");
  EXPECT_EQ(r->object, "_:b2");
  EXPECT_EQ(r->object_kind, ObjectKind::kIri);
}

TEST(NTriplesParserTest, ExtraWhitespaceTolerated) {
  auto r = ParseLine("  <http://a/s>\t<http://a/p>   <http://a/o> . ");
  ASSERT_TRUE(r.ok());
}

TEST(NTriplesParserTest, MalformedLines) {
  TurtleParser parser;
  const char* bad_lines[] = {
      "<s> <p>",                                   // missing object
      "<s> <p> <o>",                               // missing dot
      "<s <p> <o> .",                              // unterminated IRI
      "<s> <p> \"unterminated .",                  // unterminated literal
      "<s> <p> \"x\" . trailing",                  // garbage after dot
      "<s> <p> \"bad\\q\" .",                      // unknown escape
      "<s> <p> \"bad\\u00G9\" .",                  // bad hex
      "plain text",                                // no IRI
  };
  for (const char* line : bad_lines) {
    auto r = parser.ParseString(line, [](const Triple&) {});
    EXPECT_FALSE(r.ok()) << "should reject: " << line;
  }
}

TEST(NTriplesParserTest, ParseStringCountsAndSkipsComments) {
  TurtleParser parser;
  std::string doc =
      "# header\n"
      "<http://a/s> <http://a/p> <http://a/o> .\n"
      "\n"
      "<http://a/s> <http://a/p> \"x\" .\n";
  int count = 0;
  auto r = parser.ParseString(doc, [&](const Triple&) { ++count; });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 2u);
  EXPECT_EQ(count, 2);
}

TEST(NTriplesParserTest, StrictModeReportsLineNumber) {
  TurtleParser parser;
  std::string doc = "<http://a/s> <http://a/p> <http://a/o> .\nbroken\n";
  auto r = parser.ParseString(doc, [](const Triple&) {});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST(NTriplesParserTest, ParseFileRoundTrip) {
  namespace fs = std::filesystem;
  std::string path = (fs::temp_directory_path() / "ksp_parser_test.nt")
                         .string();
  Triple original;
  original.subject = "http://a/s";
  original.predicate = "http://a/p";
  original.object = "line1\nline2 with \"quotes\"";
  original.object_kind = ObjectKind::kLiteral;
  {
    std::ofstream out(path);
    out << "# comment\r\n";
    out << ToNTriplesLine(original) << "\n";
  }
  std::vector<Triple> parsed;
  auto r = ParseNTriplesFile(path, [&](const Triple& t) {
    parsed.push_back(t);
  });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(*r, 1u);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0], original);

  // A malformed third line fails with the file's path and line number.
  {
    std::ofstream out(path, std::ios::app);
    out << "<http://a/s> <http://a/p> \"unterminated .\n";
  }
  r = ParseNTriplesFile(path, [](const Triple&) {});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_NE(r.status().message().find(path + ":3:"), std::string::npos)
      << r.status().ToString();
  std::remove(path.c_str());
}

TEST(NTriplesParserTest, ParseMissingFileIsIOError) {
  auto r = ParseNTriplesFile("/nonexistent/path.nt", [](const Triple&) {});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
}

TEST(ToNTriplesLineTest, SerializesAllShapes) {
  Triple t;
  t.subject = "http://a/s";
  t.predicate = "http://a/p";
  t.object = "http://a/o";
  EXPECT_EQ(ToNTriplesLine(t), "<http://a/s> <http://a/p> <http://a/o> .");

  t.object = "hi";
  t.object_kind = ObjectKind::kLiteral;
  t.language = "en";
  EXPECT_EQ(ToNTriplesLine(t), "<http://a/s> <http://a/p> \"hi\"@en .");

  t.language.clear();
  t.datatype = "http://t";
  EXPECT_EQ(ToNTriplesLine(t),
            "<http://a/s> <http://a/p> \"hi\"^^<http://t> .");
}

}  // namespace
}  // namespace ksp
