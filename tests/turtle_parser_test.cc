#include "rdf/turtle_parser.h"

#include <gtest/gtest.h>

#include <vector>

#include "rdf/knowledge_base.h"

namespace ksp {
namespace {

std::vector<Triple> ParseAll(std::string_view text, bool strict = true,
                             uint64_t* malformed = nullptr,
                             Status* status = nullptr) {
  TurtleParser::Options options;
  options.strict = strict;
  TurtleParser parser(options);
  std::vector<Triple> triples;
  auto count = parser.ParseString(
      text, [&](const Triple& t) { triples.push_back(t); }, malformed);
  if (status != nullptr) {
    *status = count.ok() ? Status::OK() : count.status();
  } else {
    EXPECT_TRUE(count.ok()) << count.status().ToString();
  }
  return triples;
}

TEST(TurtleParserTest, PrefixExpansion) {
  auto triples = ParseAll(
      "@prefix ex: <http://example.org/> .\n"
      "ex:A ex:knows ex:B .\n");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].subject, "http://example.org/A");
  EXPECT_EQ(triples[0].predicate, "http://example.org/knows");
  EXPECT_EQ(triples[0].object, "http://example.org/B");
  EXPECT_EQ(triples[0].object_kind, ObjectKind::kIri);
}

TEST(TurtleParserTest, SparqlStylePrefixAndEmptyPrefix) {
  auto triples = ParseAll(
      "PREFIX : <http://example.org/>\n"
      ":A :p :B .\n");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].subject, "http://example.org/A");
}

TEST(TurtleParserTest, BaseResolution) {
  auto triples = ParseAll(
      "@base <http://example.org/> .\n"
      "<A> <p> <B> .\n");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].subject, "http://example.org/A");
  EXPECT_EQ(triples[0].predicate, "http://example.org/p");
}

TEST(TurtleParserTest, AKeywordExpandsToRdfType) {
  auto triples = ParseAll(
      "@prefix ex: <http://example.org/> .\n"
      "ex:Abbey a ex:Monastery .\n");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].predicate,
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
}

TEST(TurtleParserTest, PredicateAndObjectLists) {
  auto triples = ParseAll(
      "@prefix ex: <http://example.org/> .\n"
      "ex:A ex:p ex:B , ex:C ;\n"
      "     ex:q ex:D ;\n"
      "     ex:r \"text\" .\n");
  ASSERT_EQ(triples.size(), 4u);
  EXPECT_EQ(triples[0].object, "http://example.org/B");
  EXPECT_EQ(triples[1].object, "http://example.org/C");
  EXPECT_EQ(triples[1].predicate, "http://example.org/p");
  EXPECT_EQ(triples[2].predicate, "http://example.org/q");
  EXPECT_EQ(triples[3].object, "text");
  EXPECT_EQ(triples[3].object_kind, ObjectKind::kLiteral);
}

TEST(TurtleParserTest, DanglingSemicolonBeforeDot) {
  auto triples = ParseAll(
      "@prefix ex: <http://e/> .\n"
      "ex:A ex:p ex:B ; .\n");
  EXPECT_EQ(triples.size(), 1u);
}

TEST(TurtleParserTest, LiteralForms) {
  auto triples = ParseAll(
      "@prefix ex: <http://e/> .\n"
      "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
      "ex:A ex:label \"hello\\nworld\"@en ;\n"
      "     ex:typed \"42\"^^xsd:int ;\n"
      "     ex:count 17 ;\n"
      "     ex:ratio 3.5 ;\n"
      "     ex:mass 1.2e3 ;\n"
      "     ex:flag true .\n");
  ASSERT_EQ(triples.size(), 6u);
  EXPECT_EQ(triples[0].object, "hello\nworld");
  EXPECT_EQ(triples[0].language, "en");
  EXPECT_EQ(triples[1].datatype, "http://www.w3.org/2001/XMLSchema#int");
  EXPECT_EQ(triples[2].object, "17");
  EXPECT_EQ(triples[2].datatype,
            "http://www.w3.org/2001/XMLSchema#integer");
  EXPECT_EQ(triples[3].datatype,
            "http://www.w3.org/2001/XMLSchema#decimal");
  EXPECT_EQ(triples[4].datatype, "http://www.w3.org/2001/XMLSchema#double");
  EXPECT_EQ(triples[5].object, "true");
  EXPECT_EQ(triples[5].datatype,
            "http://www.w3.org/2001/XMLSchema#boolean");
}

TEST(TurtleParserTest, NTriplesIsValidTurtle) {
  auto triples = ParseAll(
      "<http://e/s> <http://e/p> <http://e/o> .\n"
      "<http://e/s> <http://e/q> \"lit\" .\n");
  EXPECT_EQ(triples.size(), 2u);
}

TEST(TurtleParserTest, CommentsAndBlankLines) {
  auto triples = ParseAll(
      "# a header comment\n"
      "@prefix ex: <http://e/> .  # trailing comment\n"
      "\n"
      "ex:A ex:p ex:B . # done\n");
  EXPECT_EQ(triples.size(), 1u);
}

TEST(TurtleParserTest, BlankNodeLabels) {
  auto triples = ParseAll(
      "@prefix ex: <http://e/> .\n"
      "_:b1 ex:p _:b2 .\n");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].subject, "_:b1");
  EXPECT_EQ(triples[0].object, "_:b2");
}

TEST(TurtleParserTest, ErrorsCarryLineNumbers) {
  Status status;
  ParseAll("@prefix ex: <http://e/> .\n\nex:A ex:p ex:B\n", true, nullptr,
           &status);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line"), std::string::npos);
}

TEST(TurtleParserTest, RejectedConstructs) {
  const char* bad[] = {
      "ex:A ex:p ex:B .",  // Undeclared prefix.
      "@prefix ex: <http://e/> . ex:A ex:p [ ex:q ex:B ] .",
      "@prefix ex: <http://e/> . ex:A ex:p (1 2 3) .",
      "@prefix ex: <http://e/> . ex:A ex:p \"\"\"multi\"\"\" .",
      "@prefix ex: <http://e/> . ex:A ex:p \"unterminated .",
  };
  for (const char* text : bad) {
    Status status;
    ParseAll(text, true, nullptr, &status);
    EXPECT_FALSE(status.ok()) << text;
  }
}

TEST(TurtleParserTest, LenientModeSkipsBadStatements) {
  uint64_t malformed = 0;
  auto triples = ParseAll(
      "@prefix ex: <http://e/> .\n"
      "ex:A ex:p ex:B .\n"
      "ex:broken ex:p [ ] .\n"
      "ex:C ex:p ex:D .\n",
      /*strict=*/false, &malformed);
  EXPECT_EQ(triples.size(), 2u);
  EXPECT_EQ(malformed, 1u);
}

TEST(TurtleParserTest, EndToEndKnowledgeBase) {
  // A Turtle rendering of the Figure 1 neighbourhood with coordinates.
  const char* turtle = R"(
@prefix ex: <http://example.org/> .
@prefix geo: <http://www.w3.org/2003/01/geo/wgs84_pos#> .

ex:Montmajour_Abbey a ex:Monastery ;
    ex:dedication ex:Saint_Peter ;
    geo:lat 43.71 ;
    geo:long 4.66 .

ex:Saint_Peter ex:note "Roman Catholic saint" .
)";
  auto kb = LoadKnowledgeBaseFromString(turtle);
  ASSERT_TRUE(kb.ok()) << kb.status().ToString();
  EXPECT_EQ((*kb)->num_vertices(), 2u);  // Abbey + Saint (type folded).
  EXPECT_EQ((*kb)->num_places(), 1u);
  EXPECT_NEAR((*kb)->place_location(0).x, 43.71, 1e-9);
  auto abbey = (*kb)->FindVertex("http://example.org/Montmajour_Abbey");
  ASSERT_TRUE(abbey.has_value());
  // The folded type contributes "monastery" to the abbey's document.
  auto terms = (*kb)->LookupTerms({"monastery"});
  ASSERT_NE(terms[0], kInvalidTerm);
  EXPECT_TRUE((*kb)->documents().Contains(*abbey, terms[0]));
}

TEST(TurtleParserTest, MissingFileIsIOError) {
  TurtleParser parser;
  auto result = parser.ParseFile("/nonexistent.ttl", [](const Triple&) {});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
}

}  // namespace
}  // namespace ksp
