#include "rdf/kb_io.h"

#include <cstring>

#include "common/varint.h"
#include "rdf/graph.h"
#include "text/document_store.h"

namespace ksp {

namespace {
constexpr uint32_t kMagic = 0x4B53504Bu;  // "KSPK"
constexpr uint32_t kSnapshotVersion = 2;
}  // namespace

/// Friend of KnowledgeBase: assembles a KB from deserialized state.
class KnowledgeBaseSnapshotAccess {
 public:
  /// Varint-packed snapshot body.
  static std::string SerializeBody(const KnowledgeBase& kb) {
    std::string buf;

    // Vocabulary and predicate dictionary, in id order.
    PutVarint64(&buf, kb.terms_.size());
    for (TermId t = 0; t < kb.terms_.size(); ++t) {
      PutLengthPrefixed(&buf, kb.terms_.Term(t));
    }
    PutVarint64(&buf, kb.predicates_.size());
    for (PredicateId p = 0; p < kb.predicates_.size(); ++p) {
      PutLengthPrefixed(&buf, kb.predicates_.Term(p));
    }

    // Vertex IRIs.
    const VertexId n = kb.num_vertices();
    PutVarint64(&buf, n);
    for (VertexId v = 0; v < n; ++v) {
      PutLengthPrefixed(&buf, kb.iris_[v]);
    }

    // Documents: per-vertex delta-encoded sorted term lists.
    for (VertexId v = 0; v < n; ++v) {
      auto terms = kb.documents_.Terms(v);
      PutVarint64(&buf, terms.size());
      TermId prev = 0;
      for (size_t i = 0; i < terms.size(); ++i) {
        PutVarint64(&buf, i == 0 ? terms[i] : terms[i] - prev);
        prev = terms[i];
      }
    }

    // Out-edges with predicates.
    PutVarint64(&buf, kb.graph_.num_edges());
    for (VertexId v = 0; v < n; ++v) {
      auto targets = kb.graph_.OutNeighbors(v);
      auto preds = kb.graph_.OutPredicates(v);
      PutVarint64(&buf, targets.size());
      for (size_t i = 0; i < targets.size(); ++i) {
        PutVarint64(&buf, targets[i]);
        PutVarint64(&buf, preds[i]);
      }
    }

    // Places.
    PutVarint64(&buf, kb.place_vertices_.size());
    for (PlaceId p = 0; p < kb.place_vertices_.size(); ++p) {
      PutVarint64(&buf, kb.place_vertices_[p]);
      Point location = kb.place_locations_[p];
      uint64_t x_bits;
      uint64_t y_bits;
      static_assert(sizeof(double) == 8);
      std::memcpy(&x_bits, &location.x, 8);
      std::memcpy(&y_bits, &location.y, 8);
      PutFixed64(&buf, x_bits);
      PutFixed64(&buf, y_bits);
    }
    return buf;
  }

  /// Parses a snapshot body; `*pos` starts at the body's first byte and
  /// must land exactly at `body.size()` for the caller's framing checks.
  static Result<std::unique_ptr<KnowledgeBase>> ParseBody(
      std::string_view buf, size_t* pos) {
    auto kb = std::unique_ptr<KnowledgeBase>(new KnowledgeBase());

    uint64_t num_terms = 0;
    KSP_RETURN_NOT_OK(GetVarint64(buf, pos, &num_terms));
    std::string term;
    for (uint64_t t = 0; t < num_terms; ++t) {
      KSP_RETURN_NOT_OK(GetLengthPrefixed(buf, pos, &term));
      kb->terms_.Intern(term);
    }
    uint64_t num_predicates = 0;
    KSP_RETURN_NOT_OK(GetVarint64(buf, pos, &num_predicates));
    for (uint64_t p = 0; p < num_predicates; ++p) {
      KSP_RETURN_NOT_OK(GetLengthPrefixed(buf, pos, &term));
      kb->predicates_.Intern(term);
    }

    uint64_t n = 0;
    KSP_RETURN_NOT_OK(GetVarint64(buf, pos, &n));
    // Each IRI needs at least a one-byte length prefix; a corrupt vertex
    // count must not drive a multi-GB resize.
    if (n > buf.size() - *pos) {
      return Status::Corruption("vertex count exceeds snapshot size");
    }
    kb->iris_.resize(n);
    for (uint64_t v = 0; v < n; ++v) {
      KSP_RETURN_NOT_OK(GetLengthPrefixed(buf, pos, &kb->iris_[v]));
      kb->iri_index_.emplace(kb->iris_[v], static_cast<VertexId>(v));
    }

    DocumentStoreBuilder docs;
    for (uint64_t v = 0; v < n; ++v) {
      uint64_t count = 0;
      KSP_RETURN_NOT_OK(GetVarint64(buf, pos, &count));
      uint64_t prev = 0;
      for (uint64_t i = 0; i < count; ++i) {
        uint64_t delta = 0;
        KSP_RETURN_NOT_OK(GetVarint64(buf, pos, &delta));
        prev = (i == 0) ? delta : prev + delta;
        if (prev >= num_terms) {
          return Status::Corruption("document term id out of range");
        }
        docs.AddTerm(static_cast<VertexId>(v), static_cast<TermId>(prev));
      }
    }
    kb->documents_ = docs.Finish(static_cast<VertexId>(n));

    uint64_t num_edges = 0;
    KSP_RETURN_NOT_OK(GetVarint64(buf, pos, &num_edges));
    GraphBuilder graph;
    for (uint64_t v = 0; v < n; ++v) {
      uint64_t degree = 0;
      KSP_RETURN_NOT_OK(GetVarint64(buf, pos, &degree));
      for (uint64_t i = 0; i < degree; ++i) {
        uint64_t target = 0;
        uint64_t predicate = 0;
        KSP_RETURN_NOT_OK(GetVarint64(buf, pos, &target));
        KSP_RETURN_NOT_OK(GetVarint64(buf, pos, &predicate));
        if (target >= n || predicate >= num_predicates) {
          return Status::Corruption("edge target or predicate out of range");
        }
        graph.AddEdge(static_cast<VertexId>(v),
                      static_cast<VertexId>(target),
                      static_cast<PredicateId>(predicate));
      }
    }
    if (graph.num_pending_edges() != num_edges) {
      return Status::Corruption("edge count mismatch");
    }
    kb->graph_ = graph.Finish(static_cast<VertexId>(n));

    uint64_t num_places = 0;
    KSP_RETURN_NOT_OK(GetVarint64(buf, pos, &num_places));
    kb->place_of_vertex_.assign(n, kInvalidPlace);
    for (uint64_t p = 0; p < num_places; ++p) {
      uint64_t vertex = 0;
      KSP_RETURN_NOT_OK(GetVarint64(buf, pos, &vertex));
      uint64_t x_bits = 0;
      uint64_t y_bits = 0;
      KSP_RETURN_NOT_OK(GetFixed64(buf, pos, &x_bits));
      KSP_RETURN_NOT_OK(GetFixed64(buf, pos, &y_bits));
      Point location;
      std::memcpy(&location.x, &x_bits, 8);
      std::memcpy(&location.y, &y_bits, 8);
      if (vertex >= n) return Status::Corruption("place vertex oob");
      kb->place_of_vertex_[vertex] = static_cast<PlaceId>(p);
      kb->place_vertices_.push_back(static_cast<VertexId>(vertex));
      kb->place_locations_.push_back(location);
    }

    kb->inverted_index_ = MemoryInvertedIndex::Build(
        kb->documents_, static_cast<TermId>(kb->terms_.size()));
    return kb;
  }

  static Status Save(const KnowledgeBase& kb, const std::string& path,
                     FileSystem* fs, ArtifactInfo* info) {
    if (fs == nullptr) fs = DefaultFileSystem();
    return WriteArtifactAtomically(
        fs, path, kMagic, kSnapshotVersion,
        [&kb](ChecksummedWriter* w) {
          return w->WriteSection(SerializeBody(kb));
        },
        info);
  }

  static Result<std::unique_ptr<KnowledgeBase>> Load(
      const std::string& path, FileSystem* fs) {
    if (fs == nullptr) fs = DefaultFileSystem();
    auto file = fs->NewRandomAccessFile(path);
    if (!file.ok()) return file.status();
    ChecksummedReader reader(file->get());
    uint32_t version = 0;
    KSP_RETURN_NOT_OK(reader.Open(kMagic, &version));
    if (version != kSnapshotVersion) {
      return CorruptionAt(path, 4,
                          "unsupported snapshot format version " +
                              std::to_string(version));
    }
    std::string body;
    const uint64_t body_offset = reader.offset();
    KSP_RETURN_NOT_OK(reader.ReadSection(&body));
    KSP_RETURN_NOT_OK(reader.ExpectEnd());
    size_t pos = 0;
    auto kb = ParseBody(body, &pos);
    if (!kb.ok()) {
      return CorruptionAt(path, body_offset, kb.status().message());
    }
    if (pos != body.size()) {
      return CorruptionAt(path, body_offset + pos,
                          "trailing bytes in snapshot body");
    }
    return kb;
  }
};

Status SaveKnowledgeBase(const KnowledgeBase& kb, const std::string& path,
                         FileSystem* fs, ArtifactInfo* info) {
  return KnowledgeBaseSnapshotAccess::Save(kb, path, fs, info);
}

Result<std::unique_ptr<KnowledgeBase>> LoadKnowledgeBaseSnapshot(
    const std::string& path, FileSystem* fs) {
  return KnowledgeBaseSnapshotAccess::Load(path, fs);
}

}  // namespace ksp
