#ifndef KSP_RDF_KNOWLEDGE_BASE_H_
#define KSP_RDF_KNOWLEDGE_BASE_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "rdf/graph.h"
#include "rdf/triple.h"
#include "spatial/geometry.h"
#include "text/document_store.h"
#include "text/inverted_index.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace ksp {

class KnowledgeBase;

/// Options controlling how raw triples become the simplified keyword-search
/// graph of [43] (§1 and §2 of the paper).
struct KnowledgeBaseOptions {
  TokenizerOptions tokenizer;

  /// Predicates whose local name is listed here produce no edge and no
  /// document terms — the paper removes "sameAs", "linksTo" and
  /// "redirectTo" edges as semantically meaningless.
  std::vector<std::string> ignored_predicate_local_names = {
      "sameAs", "linksTo", "redirectTo", "wikiPageRedirects",
      "wikiPageDisambiguates"};

  /// Predicates treated as type assertions: the object IRI is folded into
  /// the subject's document instead of creating an edge.
  std::vector<std::string> type_predicate_local_names = {"type"};
};

/// Builds a KnowledgeBase either from parsed RDF triples (AddTriple) or
/// programmatically (AddEntity / AddRelation / AddDocumentText /
/// SetLocation). Both paths implement the paper's preprocessing:
///  - subject URI tokens and literal tokens form the subject's document ψ;
///  - for an entity-to-entity triple, the predicate's tokens are added to
///    the *object* entity's document;
///  - literal and type objects do not become vertices;
///  - vertices with coordinates (geo:lat/geo:long, georss:point, or WKT
///    "POINT(lon lat)") become place vertices.
class KnowledgeBaseBuilder {
 public:
  explicit KnowledgeBaseBuilder(KnowledgeBaseOptions options = {});

  /// Returns the vertex for `iri`, creating it (and tokenizing its local
  /// name into its document) on first sight.
  VertexId AddEntity(std::string_view iri);

  /// Tokenizes `text` and appends the tokens to the document of `vertex`.
  void AddDocumentText(VertexId vertex, std::string_view text);

  /// Adds one pre-tokenized keyword to the document of `vertex`.
  void AddDocumentTerm(VertexId vertex, std::string_view term);

  /// Adds a directed edge src -> dst labelled with `predicate_iri`; the
  /// predicate's tokens are appended to dst's document per the paper.
  void AddRelation(VertexId src, VertexId dst, std::string_view predicate_iri);

  /// Declares `vertex` a place located at `location`.
  void SetLocation(VertexId vertex, const Point& location);

  /// Routes one parsed triple through the rules above.
  void AddTriple(const Triple& triple);

  VertexId num_vertices() const {
    return static_cast<VertexId>(iris_.size());
  }

  /// Freezes everything into an immutable KnowledgeBase.
  Result<std::unique_ptr<KnowledgeBase>> Finish();

 private:
  bool IsIgnoredPredicate(std::string_view local_name) const;
  bool IsTypePredicate(std::string_view local_name) const;
  /// Recognizes spatial predicates; returns true if consumed.
  bool TryConsumeSpatialTriple(VertexId subject,
                               std::string_view predicate_local,
                               const Triple& triple);
  PredicateId InternPredicate(std::string_view iri);

  KnowledgeBaseOptions options_;
  Tokenizer tokenizer_;
  std::vector<std::string> iris_;
  std::unordered_map<std::string, VertexId> iri_index_;
  Vocabulary terms_;
  Vocabulary predicates_;
  DocumentStoreBuilder docs_;
  GraphBuilder graph_;
  /// Partially observed coordinates (lat/long arrive in separate triples).
  std::unordered_map<VertexId, std::pair<std::optional<double>,
                                         std::optional<double>>>
      pending_coords_;
  std::unordered_map<VertexId, Point> locations_;
};

/// Immutable spatial RDF knowledge base: the native-form graph, the term
/// dictionary, the per-vertex documents, the place registry, and the
/// (memory) inverted index over documents. This is the input to all kSP
/// search engines.
class KnowledgeBase {
 public:
  const Graph& graph() const { return graph_; }
  const Vocabulary& vocabulary() const { return terms_; }
  const Vocabulary& predicate_dictionary() const { return predicates_; }
  const DocumentStore& documents() const { return documents_; }
  const MemoryInvertedIndex& inverted_index() const {
    return inverted_index_;
  }

  VertexId num_vertices() const { return graph_.num_vertices(); }
  uint64_t num_edges() const { return graph_.num_edges(); }
  TermId num_terms() const { return static_cast<TermId>(terms_.size()); }

  /// ---- Place registry ----
  uint32_t num_places() const {
    return static_cast<uint32_t>(place_vertices_.size());
  }
  VertexId place_vertex(PlaceId p) const { return place_vertices_[p]; }
  Point place_location(PlaceId p) const { return place_locations_[p]; }
  /// kInvalidPlace if `v` is not a place.
  PlaceId place_of(VertexId v) const { return place_of_vertex_[v]; }
  bool IsPlace(VertexId v) const {
    return place_of_vertex_[v] != kInvalidPlace;
  }

  const std::string& VertexIri(VertexId v) const { return iris_[v]; }
  /// Vertex id of an IRI, if present.
  std::optional<VertexId> FindVertex(std::string_view iri) const;

  /// Looks up the TermIds of keyword strings; unknown keywords map to
  /// kInvalidTerm (their posting lists are empty).
  std::vector<TermId> LookupTerms(
      const std::vector<std::string>& keywords) const;

  uint64_t GraphMemoryBytes() const { return graph_.MemoryUsageBytes(); }
  uint64_t InvertedIndexBytes() const { return inverted_index_.SizeBytes(); }

 private:
  friend class KnowledgeBaseBuilder;
  // Snapshot serialization (rdf/kb_io.cc) reconstructs the private state
  // bit-exactly without re-tokenizing.
  friend class KnowledgeBaseSnapshotAccess;
  KnowledgeBase() = default;

  Graph graph_;
  Vocabulary terms_;
  Vocabulary predicates_;
  DocumentStore documents_;
  MemoryInvertedIndex inverted_index_;
  std::vector<std::string> iris_;
  std::unordered_map<std::string, VertexId> iri_index_;
  std::vector<VertexId> place_vertices_;
  std::vector<Point> place_locations_;
  std::vector<PlaceId> place_of_vertex_;
};

/// Convenience: parses an N-Triples file line by line (ParseNTriplesFile
/// in rdf/turtle_parser.h) and builds a KnowledgeBase.
Result<std::unique_ptr<KnowledgeBase>> LoadKnowledgeBaseFromFile(
    const std::string& path, KnowledgeBaseOptions options = {});

/// Convenience: same, from an in-memory N-Triples or Turtle document
/// (one lexer reads both; see rdf/turtle_parser.h).
Result<std::unique_ptr<KnowledgeBase>> LoadKnowledgeBaseFromString(
    std::string_view text, KnowledgeBaseOptions options = {});

/// Convenience: parses a Turtle file and builds a KB.
Result<std::unique_ptr<KnowledgeBase>> LoadKnowledgeBaseFromTurtleFile(
    const std::string& path, KnowledgeBaseOptions options = {});

}  // namespace ksp

#endif  // KSP_RDF_KNOWLEDGE_BASE_H_
