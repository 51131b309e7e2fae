#include "rdf/knowledge_base.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "common/logging.h"
#include "common/strings.h"
#include "rdf/turtle_parser.h"

namespace ksp {

namespace {

/// Parses a double strictly; returns nullopt on garbage.
std::optional<double> ParseDouble(std::string_view s) {
  std::string buf(TrimWhitespace(s));
  if (buf.empty()) return std::nullopt;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  return v;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

KnowledgeBaseBuilder::KnowledgeBaseBuilder(KnowledgeBaseOptions options)
    : options_(std::move(options)), tokenizer_(options_.tokenizer) {}

VertexId KnowledgeBaseBuilder::AddEntity(std::string_view iri) {
  std::string key(StripAngleBrackets(iri));
  auto it = iri_index_.find(key);
  if (it != iri_index_.end()) return it->second;
  VertexId v = static_cast<VertexId>(iris_.size());
  iris_.push_back(key);
  iri_index_.emplace(std::move(key), v);
  // The vertex's URI local name seeds its document (as in [43]).
  for (const auto& token : tokenizer_.TokenizeUriLocalName(iris_[v])) {
    docs_.AddTerm(v, terms_.Intern(token));
  }
  return v;
}

void KnowledgeBaseBuilder::AddDocumentText(VertexId vertex,
                                           std::string_view text) {
  for (const auto& token : tokenizer_.Tokenize(text)) {
    docs_.AddTerm(vertex, terms_.Intern(token));
  }
}

void KnowledgeBaseBuilder::AddDocumentTerm(VertexId vertex,
                                           std::string_view term) {
  docs_.AddTerm(vertex, terms_.Intern(term));
}

PredicateId KnowledgeBaseBuilder::InternPredicate(std::string_view iri) {
  return predicates_.Intern(StripAngleBrackets(iri));
}

void KnowledgeBaseBuilder::AddRelation(VertexId src, VertexId dst,
                                       std::string_view predicate_iri) {
  PredicateId pid = InternPredicate(predicate_iri);
  graph_.AddEdge(src, dst, pid);
  // Predicate description enriches the *object* document (§2).
  for (const auto& token : tokenizer_.TokenizeUriLocalName(predicate_iri)) {
    docs_.AddTerm(dst, terms_.Intern(token));
  }
}

void KnowledgeBaseBuilder::SetLocation(VertexId vertex,
                                       const Point& location) {
  locations_[vertex] = location;
}

bool KnowledgeBaseBuilder::IsIgnoredPredicate(
    std::string_view local_name) const {
  for (const auto& name : options_.ignored_predicate_local_names) {
    if (EqualsIgnoreCase(local_name, name)) return true;
  }
  return false;
}

bool KnowledgeBaseBuilder::IsTypePredicate(std::string_view local_name) const {
  for (const auto& name : options_.type_predicate_local_names) {
    if (EqualsIgnoreCase(local_name, name)) return true;
  }
  return false;
}

bool KnowledgeBaseBuilder::TryConsumeSpatialTriple(
    VertexId subject, std::string_view predicate_local,
    const Triple& triple) {
  if (triple.object_kind != ObjectKind::kLiteral) return false;

  if (EqualsIgnoreCase(predicate_local, "lat") ||
      EqualsIgnoreCase(predicate_local, "latitude")) {
    if (auto v = ParseDouble(triple.object)) {
      pending_coords_[subject].first = *v;
      return true;
    }
    return false;
  }
  if (EqualsIgnoreCase(predicate_local, "long") ||
      EqualsIgnoreCase(predicate_local, "lng") ||
      EqualsIgnoreCase(predicate_local, "longitude")) {
    if (auto v = ParseDouble(triple.object)) {
      pending_coords_[subject].second = *v;
      return true;
    }
    return false;
  }
  if (EqualsIgnoreCase(predicate_local, "point")) {
    // georss:point "lat long".
    auto parts = SplitAny(triple.object, " \t,");
    if (parts.size() == 2) {
      auto lat = ParseDouble(parts[0]);
      auto lon = ParseDouble(parts[1]);
      if (lat && lon) {
        locations_[subject] = Point{*lat, *lon};
        return true;
      }
    }
    return false;
  }
  if (EqualsIgnoreCase(predicate_local, "hasGeometry") ||
      EqualsIgnoreCase(predicate_local, "asWKT") ||
      EqualsIgnoreCase(predicate_local, "geometry")) {
    // WKT "POINT(lon lat)" (GeoSPARQL axis order).
    std::string body(TrimWhitespace(triple.object));
    std::string lower = AsciiToLower(body);
    size_t open = lower.find("point");
    if (open == std::string::npos) return false;
    size_t lparen = body.find('(', open);
    size_t rparen = body.find(')', open);
    if (lparen == std::string::npos || rparen == std::string::npos ||
        rparen <= lparen) {
      return false;
    }
    auto parts =
        SplitAny(std::string_view(body).substr(lparen + 1, rparen - lparen - 1),
                 " \t,");
    if (parts.size() == 2) {
      auto lon = ParseDouble(parts[0]);
      auto lat = ParseDouble(parts[1]);
      if (lat && lon) {
        locations_[subject] = Point{*lat, *lon};
        return true;
      }
    }
    return false;
  }
  return false;
}

void KnowledgeBaseBuilder::AddTriple(const Triple& triple) {
  std::string_view predicate_local = UriLocalName(triple.predicate);
  if (IsIgnoredPredicate(predicate_local)) return;

  VertexId subject = AddEntity(triple.subject);

  if (triple.object_kind == ObjectKind::kLiteral) {
    if (TryConsumeSpatialTriple(subject, predicate_local, triple)) return;
    // Literal folds into the subject's document together with the
    // predicate description.
    AddDocumentText(subject, triple.object);
    for (const auto& token : tokenizer_.TokenizeUriLocalName(
             triple.predicate)) {
      docs_.AddTerm(subject, terms_.Intern(token));
    }
    return;
  }

  if (IsTypePredicate(predicate_local)) {
    // Type assertion: fold the type IRI's tokens into the subject doc.
    for (const auto& token : tokenizer_.TokenizeUriLocalName(triple.object)) {
      docs_.AddTerm(subject, terms_.Intern(token));
    }
    return;
  }

  VertexId object = AddEntity(triple.object);
  AddRelation(subject, object, triple.predicate);
}

Result<std::unique_ptr<KnowledgeBase>> KnowledgeBaseBuilder::Finish() {
  // Merge pending lat/long pairs into locations.
  for (const auto& [vertex, coords] : pending_coords_) {
    if (coords.first && coords.second &&
        locations_.find(vertex) == locations_.end()) {
      locations_[vertex] = Point{*coords.first, *coords.second};
    }
  }
  pending_coords_.clear();

  auto kb = std::unique_ptr<KnowledgeBase>(new KnowledgeBase());
  const VertexId n = num_vertices();
  kb->graph_ = graph_.Finish(n);
  kb->documents_ = docs_.Finish(n);
  kb->terms_ = std::move(terms_);
  kb->predicates_ = std::move(predicates_);
  kb->iris_ = std::move(iris_);
  kb->iri_index_ = std::move(iri_index_);

  kb->place_of_vertex_.assign(n, kInvalidPlace);
  // Deterministic place ordering: ascending vertex id.
  std::vector<VertexId> place_vertices;
  place_vertices.reserve(locations_.size());
  for (const auto& [vertex, location] : locations_) {
    (void)location;
    place_vertices.push_back(vertex);
  }
  std::sort(place_vertices.begin(), place_vertices.end());
  for (VertexId v : place_vertices) {
    PlaceId p = static_cast<PlaceId>(kb->place_vertices_.size());
    kb->place_vertices_.push_back(v);
    kb->place_locations_.push_back(locations_[v]);
    kb->place_of_vertex_[v] = p;
  }

  kb->inverted_index_ = MemoryInvertedIndex::Build(
      kb->documents_, static_cast<TermId>(kb->terms_.size()));
  return kb;
}

std::optional<VertexId> KnowledgeBase::FindVertex(
    std::string_view iri) const {
  auto it = iri_index_.find(std::string(StripAngleBrackets(iri)));
  if (it == iri_index_.end()) return std::nullopt;
  return it->second;
}

std::vector<TermId> KnowledgeBase::LookupTerms(
    const std::vector<std::string>& keywords) const {
  std::vector<TermId> out;
  out.reserve(keywords.size());
  for (const auto& kw : keywords) {
    auto id = terms_.Lookup(AsciiToLower(kw));
    out.push_back(id.has_value() ? *id : kInvalidTerm);
  }
  return out;
}

Result<std::unique_ptr<KnowledgeBase>> LoadKnowledgeBaseFromFile(
    const std::string& path, KnowledgeBaseOptions options) {
  KnowledgeBaseBuilder builder(std::move(options));
  auto count = ParseNTriplesFile(
      path, [&](const Triple& t) { builder.AddTriple(t); });
  if (!count.ok()) return count.status();
  return builder.Finish();
}

Result<std::unique_ptr<KnowledgeBase>> LoadKnowledgeBaseFromString(
    std::string_view text, KnowledgeBaseOptions options) {
  KnowledgeBaseBuilder builder(std::move(options));
  TurtleParser parser;
  auto count = parser.ParseString(
      text, [&](const Triple& t) { builder.AddTriple(t); });
  if (!count.ok()) return count.status();
  return builder.Finish();
}

Result<std::unique_ptr<KnowledgeBase>> LoadKnowledgeBaseFromTurtleFile(
    const std::string& path, KnowledgeBaseOptions options) {
  KnowledgeBaseBuilder builder(std::move(options));
  TurtleParser parser;
  auto count = parser.ParseFile(
      path, [&](const Triple& t) { builder.AddTriple(t); });
  if (!count.ok()) return count.status();
  return builder.Finish();
}

}  // namespace ksp
