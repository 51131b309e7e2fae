#ifndef KSP_RDF_TURTLE_PARSER_H_
#define KSP_RDF_TURTLE_PARSER_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/result.h"
#include "rdf/triple.h"

namespace ksp {

/// Parser for the Turtle subset real knowledge-base dumps use (DBpedia
/// ships Turtle; N-Triples is its degenerate form):
///
///   @prefix dbo: <http://dbpedia.org/ontology/> .
///   PREFIX dbr: <http://dbpedia.org/resource/>        # SPARQL style
///   @base <http://dbpedia.org/resource/> .
///   dbr:Montmajour_Abbey a dbo:Monastery ;
///       dbo:dedication dbr:Saint_Peter , dbr:Mary ;
///       rdfs:label "Montmajour Abbey"@en ;
///       geo:lat "43.71"^^xsd:double .
///
/// Supported: prefixed names, 'a' (rdf:type), ';' predicate lists, ','
/// object lists, relative IRIs against @base, literals with escapes /
/// language tags / datatypes, bare numeric and boolean literals, '#'
/// comments, blank node labels (_:x). Not supported (rejected with a
/// position-carrying error): anonymous blank nodes '[...]', collections
/// '(...)', multi-line """literals""". An N-Triples document parses with
/// ParseString as is; ParseNTriplesFile streams an N-Triples file.
class TurtleParser {
 public:
  struct Options {
    /// Abort on the first syntax error (true) or skip to the next '.' and
    /// count the statement as malformed (false).
    bool strict = true;
  };

  TurtleParser() : TurtleParser(Options()) {}
  explicit TurtleParser(Options options);

  /// Parses a whole Turtle document, invoking `sink` per expanded triple.
  /// Returns the number of triples emitted.
  Result<uint64_t> ParseString(
      std::string_view text, const std::function<void(const Triple&)>& sink,
      uint64_t* malformed_statements = nullptr) const;

  Result<uint64_t> ParseFile(
      const std::string& path,
      const std::function<void(const Triple&)>& sink,
      uint64_t* malformed_statements = nullptr) const;

 private:
  Options options_;
};

/// Parses an N-Triples file (one statement per line) with the Turtle
/// lexer, one line at a time, so memory does not grow with the file.
/// Blank and '#' comment lines are skipped; the first syntax error aborts
/// with InvalidArgument located as "path:line: ...". Returns the number
/// of triples emitted.
Result<uint64_t> ParseNTriplesFile(
    const std::string& path, const std::function<void(const Triple&)>& sink);

/// Serializes a triple back to one N-Triples line (escaping literals).
std::string ToNTriplesLine(const Triple& triple);

}  // namespace ksp

#endif  // KSP_RDF_TURTLE_PARSER_H_
