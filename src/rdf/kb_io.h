#ifndef KSP_RDF_KB_IO_H_
#define KSP_RDF_KB_IO_H_

#include <memory>
#include <string>

#include "common/io_util.h"
#include "common/result.h"
#include "rdf/knowledge_base.h"

namespace ksp {

/// Binary snapshot of a KnowledgeBase — the "disk-based representation"
/// escape hatch the paper mentions for data that outgrows RAM-friendly
/// rebuild times. Saving then loading reproduces vertex ids, term ids,
/// documents, edges (with predicates), and the place registry exactly,
/// so indexes built on a loaded KB behave identically.
///
/// Format v2 (little-endian, varint-packed body inside the checksummed
/// container of common/io_util.h):
///   container magic u32
///   header section: snapshot magic u32, format version u32
///   body section: vocabulary, predicate dictionary, vertex IRIs,
///                 documents CSR, out-edge CSR with predicate ids,
///                 places (vertex id, lat, lon)
/// Saves go through temp-file + fsync + atomic rename; loads verify every
/// section checksum. `fs` defaults to DefaultFileSystem().
Status SaveKnowledgeBase(const KnowledgeBase& kb, const std::string& path,
                         FileSystem* fs = nullptr,
                         ArtifactInfo* info = nullptr);

Result<std::unique_ptr<KnowledgeBase>> LoadKnowledgeBaseSnapshot(
    const std::string& path, FileSystem* fs = nullptr);

}  // namespace ksp

#endif  // KSP_RDF_KB_IO_H_
