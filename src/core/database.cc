#include "core/database.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/io_util.h"
#include "common/logging.h"
#include "common/timer.h"
#include "common/varint.h"
#include "storage/disk_graph.h"

namespace ksp {

namespace {

constexpr uint32_t kManifestMagic = 0x4B53504Du;  // "KSPM"
constexpr uint32_t kManifestVersion = 1;
constexpr char kManifestName[] = "MANIFEST";

/// One saved artifact as recorded by the MANIFEST.
struct ManifestEntry {
  std::string name;      // Logical name: "rtree", "reach", "alpha".
  std::string filename;  // Generation-numbered file inside the directory.
  uint32_t format_version = 0;
  uint64_t size_bytes = 0;
  uint32_t crc32c = 0;
};

struct Manifest {
  uint64_t generation = 0;
  std::vector<ManifestEntry> entries;
};

std::string ArtifactFilename(const std::string& name, uint64_t generation) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "-%06llu.bin",
                static_cast<unsigned long long>(generation));
  return name + buf;
}

Status WriteManifest(FileSystem* fs, const std::string& path,
                     const Manifest& manifest) {
  return WriteArtifactAtomically(
      fs, path, kManifestMagic, kManifestVersion,
      [&manifest](ChecksummedWriter* w) {
        std::string body;
        PutVarint64(&body, manifest.generation);
        PutVarint64(&body, manifest.entries.size());
        for (const ManifestEntry& e : manifest.entries) {
          PutLengthPrefixed(&body, e.name);
          PutLengthPrefixed(&body, e.filename);
          PutFixed32(&body, e.format_version);
          PutFixed64(&body, e.size_bytes);
          PutFixed32(&body, e.crc32c);
        }
        return w->WriteSection(body);
      });
}

Result<Manifest> ReadManifest(FileSystem* fs, const std::string& path) {
  auto file = fs->NewRandomAccessFile(path);
  if (!file.ok()) return file.status();
  ChecksummedReader reader(file->get());
  uint32_t version = 0;
  KSP_RETURN_NOT_OK(reader.Open(kManifestMagic, &version));
  if (version != kManifestVersion) {
    return CorruptionAt(path, 4, "unsupported manifest version " +
                                     std::to_string(version));
  }
  std::string body;
  const uint64_t body_offset = reader.offset();
  KSP_RETURN_NOT_OK(reader.ReadSection(&body));
  KSP_RETURN_NOT_OK(reader.ExpectEnd());

  Manifest manifest;
  size_t pos = 0;
  auto parse = [&]() -> Status {
    KSP_RETURN_NOT_OK(GetVarint64(body, &pos, &manifest.generation));
    uint64_t num_entries = 0;
    KSP_RETURN_NOT_OK(GetVarint64(body, &pos, &num_entries));
    // Every entry needs several bytes; a corrupt count must not drive a
    // huge reserve.
    if (num_entries > body.size() - pos) {
      return Status::Corruption("entry count exceeds manifest size");
    }
    manifest.entries.resize(num_entries);
    for (ManifestEntry& e : manifest.entries) {
      KSP_RETURN_NOT_OK(GetLengthPrefixed(body, &pos, &e.name));
      KSP_RETURN_NOT_OK(GetLengthPrefixed(body, &pos, &e.filename));
      KSP_RETURN_NOT_OK(GetFixed32(body, &pos, &e.format_version));
      KSP_RETURN_NOT_OK(GetFixed64(body, &pos, &e.size_bytes));
      KSP_RETURN_NOT_OK(GetFixed32(body, &pos, &e.crc32c));
      // A filename with a path separator could escape the directory.
      if (e.filename.empty() ||
          e.filename.find('/') != std::string::npos) {
        return Status::Corruption("invalid artifact filename");
      }
    }
    if (pos != body.size()) {
      return Status::Corruption("trailing bytes in manifest");
    }
    return Status::OK();
  };
  Status st = parse();
  if (!st.ok()) return CorruptionAt(path, body_offset + pos, st.message());
  return manifest;
}

/// True iff the leaf payloads of `rtree` are exactly the indexed place
/// set — every KB place when `subset` is empty, else the (canonical)
/// subset — each exactly once. Uses the linear leaf scan, so a payload
/// is range-checked before it indexes anything.
bool LeafPayloadsAre(const RTree& rtree, uint32_t num_places,
                     const std::vector<PlaceId>& subset) {
  // 1 = indexed here and not yet seen.
  std::vector<uint8_t> pending(num_places, subset.empty() ? 1 : 0);
  for (PlaceId p : subset) pending[p] = 1;
  bool exact = true;
  uint64_t seen = 0;
  rtree.ForEachLeafEntry([&](const RTree::Entry& e) {
    if (e.id >= num_places || pending[e.id] == 0) {
      exact = false;
      return;
    }
    pending[e.id] = 0;
    ++seen;
  });
  return exact && seen == (subset.empty() ? num_places : subset.size());
}

}  // namespace

KspDatabase::KspDatabase(const KnowledgeBase* kb, KspOptions options,
                         const KspDatabase* store,
                         std::string rtree_spill_name)
    : kb_(kb),
      options_(std::move(options)),
      store_(store),
      rtree_spill_name_(std::move(rtree_spill_name)),
      mem_graph_(&kb->graph()),
      mem_postings_(&kb->inverted_index()) {
  KSP_CHECK(kb_ != nullptr);
  if (!options_.place_subset.empty()) {
    // Canonicalize the shard tile: sorted + deduplicated + in-range, so
    // IndexedPlaceCount() and the R-tree insert loop can trust it.
    std::sort(options_.place_subset.begin(), options_.place_subset.end());
    options_.place_subset.erase(std::unique(options_.place_subset.begin(),
                                            options_.place_subset.end()),
                                options_.place_subset.end());
    while (!options_.place_subset.empty() &&
           options_.place_subset.back() >= kb_->num_places()) {
      options_.place_subset.pop_back();
    }
  }
  if (store_ == nullptr && options_.cache_budget_bytes != 0) {
    cache_ =
        std::make_unique<SemanticQueryCache>(options_.cache_budget_bytes);
  }
  // Spill the KB-derived files (graph, postings) up front so their cost
  // lands in construction, not in the first query; the paged R-tree
  // follows each BuildRTree/LoadIndexes.
  RefreshDiskBackend();
}

KspDatabase::~KspDatabase() {
  // Accessors drop their pool registrations before the pool dies.
  paged_rtree_.reset();
  if (disk_ == nullptr) return;
  const std::string directory = disk_->owns_directory ? disk_->directory : "";
  disk_.reset();
  if (!directory.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(directory, ec);
  }
}

void KspDatabase::RefreshSpatialAccessor() {
  if (rtree_ != nullptr) {
    mem_spatial_ = std::make_unique<MemorySpatialAccessor>(rtree_.get());
  } else {
    mem_spatial_.reset();
  }
}

void KspDatabase::RefreshDiskBackend() {
  if (options_.backend != StorageBackend::kDisk) return;
  disk_status_ = BuildDiskBackendState();
}

Status KspDatabase::BuildDiskBackendState() {
  // Node ids are specific to one R-tree build: rewrite on every change.
  paged_rtree_.reset();
  if (store_ != nullptr) {
    // A shard spills only its R-tree, into the store's directory.
    DiskBackendState* disk = store_->disk_.get();
    if (disk == nullptr) return store_->disk_status_;
    return SpillRTree(disk);
  }
  if (disk_ == nullptr) {
    auto state = std::make_unique<DiskBackendState>(options_);
    if (options_.spill_directory.empty()) {
      std::string templ =
          (std::filesystem::temp_directory_path() / "ksp-spill-XXXXXX")
              .string();
      std::vector<char> buf(templ.begin(), templ.end());
      buf.push_back('\0');
      if (::mkdtemp(buf.data()) == nullptr) {
        return Status::IOError("cannot create spill directory: " + templ);
      }
      state->directory = buf.data();
      state->owns_directory = true;
    } else {
      state->directory = options_.spill_directory;
      std::error_code ec;
      std::filesystem::create_directories(state->directory, ec);
    }
    disk_ = std::move(state);
  }
  const std::string& dir = disk_->directory;

  // The adjacency files and postings describe the immutable KB: written
  // once per database.
  if (disk_->graph == nullptr) {
    const std::string out_path = dir + "/graph-out.bin";
    const std::string in_path = dir + "/graph-in.bin";
    KSP_RETURN_NOT_OK(
        DiskGraph::Write(kb_->graph(), out_path, kSpillPageSize));
    KSP_RETURN_NOT_OK(
        DiskGraph::WriteTranspose(kb_->graph(), in_path, kSpillPageSize));
    KSP_ASSIGN_OR_RETURN(
        disk_->graph,
        DiskGraphAccessor::Open(out_path, in_path, &disk_->pool));
  }
  if (disk_->postings == nullptr) {
    const std::string path = dir + "/postings.bin";
    KSP_RETURN_NOT_OK(DiskInvertedIndex::Write(kb_->inverted_index(), path));
    KSP_ASSIGN_OR_RETURN(disk_->postings,
                         DiskPostingsAccessor::Open(path, &disk_->pool));
  }
  return SpillRTree(disk_.get());
}

Status KspDatabase::SpillRTree(DiskBackendState* disk) {
  if (rtree_ == nullptr) return Status::OK();
  const std::string path = disk->directory + "/" + rtree_spill_name_;
  KSP_RETURN_NOT_OK(PagedRTree::Write(*rtree_, path, kSpillPageSize));
  KSP_ASSIGN_OR_RETURN(paged_rtree_, PagedRTree::Open(path, &disk->pool));
  return Status::OK();
}

const GraphAccessor& KspDatabase::graph_accessor() const {
  const KspDatabase& db = kb_wide();
  if (options_.backend == StorageBackend::kDisk && db.disk_status_.ok() &&
      db.disk_ != nullptr && db.disk_->graph != nullptr) {
    return *db.disk_->graph;
  }
  return db.mem_graph_;
}

const SpatialAccessor* KspDatabase::spatial_accessor() const {
  if (options_.backend == StorageBackend::kDisk && disk_status_.ok() &&
      paged_rtree_ != nullptr) {
    return paged_rtree_.get();
  }
  return mem_spatial_.get();
}

const PostingsAccessor& KspDatabase::postings_accessor() const {
  const KspDatabase& db = kb_wide();
  if (options_.backend == StorageBackend::kDisk && db.disk_status_.ok() &&
      db.disk_ != nullptr && db.disk_->postings != nullptr) {
    return *db.disk_->postings;
  }
  return db.mem_postings_;
}

void KspDatabase::BuildRTree() {
  InvalidateCache();
  index_generation_ = 0;  // In-process builds supersede any loaded generation.
  Timer timer;
  timer.Start();
  // With a place subset (shard tile, §12) only those places are indexed;
  // the loop shape is otherwise identical to the full build.
  const std::vector<PlaceId>& subset = options_.place_subset;
  const uint32_t num_places =
      subset.empty() ? kb_->num_places()
                     : static_cast<uint32_t>(subset.size());
  auto place_at = [&](uint32_t i) {
    return subset.empty() ? static_cast<PlaceId>(i) : subset[i];
  };
  if (options_.bulk_load_rtree) {
    std::vector<std::pair<Point, uint64_t>> points;
    points.reserve(num_places);
    for (uint32_t i = 0; i < num_places; ++i) {
      const PlaceId p = place_at(i);
      points.emplace_back(kb_->place_location(p), p);
    }
    rtree_ = std::make_shared<const RTree>(
        RTree::BulkLoadStr(std::move(points), options_.rtree_options));
  } else {
    RTree tree(options_.rtree_options);
    for (uint32_t i = 0; i < num_places; ++i) {
      const PlaceId p = place_at(i);
      tree.Insert(kb_->place_location(p), p);
    }
    rtree_ = std::make_shared<const RTree>(std::move(tree));
  }
  prep_times_.rtree_s = timer.ElapsedSeconds();
  RefreshSpatialAccessor();
  RefreshDiskBackend();
}

void KspDatabase::BuildReachabilityIndex() {
  InvalidateCache();
  Timer timer;
  timer.Start();
  reach_ = std::make_shared<const ReachabilityIndex>(
      ReachabilityIndex::Build(kb_->graph(), kb_->documents(),
                               kb_->num_terms(),
                               options_.undirected_edges));
  prep_times_.reachability_s = timer.ElapsedSeconds();
}

void KspDatabase::BuildAlphaIndex(uint32_t alpha) {
  BuildRTreeIfNeeded();
  InvalidateCache();
  Timer timer;
  timer.Start();
  alpha_ = std::make_shared<const AlphaIndex>(
      AlphaIndex::Build(*kb_, *rtree_, alpha, options_.undirected_edges));
  prep_times_.alpha_s = timer.ElapsedSeconds();
}

void KspDatabase::PrepareAll(uint32_t alpha) {
  BuildRTree();
  BuildReachabilityIndex();
  BuildAlphaIndex(alpha);
}

Status KspDatabase::SaveIndexes(const std::string& directory, FileSystem* fs,
                                uint64_t min_generation,
                                uint64_t* saved_generation) const {
  if (fs == nullptr) fs = DefaultFileSystem();
  // Best effort: if this fails, the first artifact write reports the real
  // error (clean IOError with the full path) instead of a silent no-op.
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  const std::string manifest_path = directory + "/" + kManifestName;

  // The next generation number comes from the live manifest. An existing
  // but unreadable manifest refuses the save: guessing a generation could
  // overwrite the files the unreadable manifest still points at.
  uint64_t generation = 1;
  std::vector<std::string> previous_files;
  if (fs->FileExists(manifest_path)) {
    auto previous = ReadManifest(fs, manifest_path);
    if (!previous.ok()) return previous.status();
    generation = previous->generation + 1;
    for (const ManifestEntry& e : previous->entries) {
      previous_files.push_back(e.filename);
    }
  }
  // A caller-imposed floor (sharded save alignment) can only move the
  // generation forward, never reuse a published number.
  if (generation < min_generation) generation = min_generation;

  Manifest manifest;
  manifest.generation = generation;
  auto save_one = [&](const char* name, auto&& save_fn) -> Status {
    ManifestEntry entry;
    entry.name = name;
    entry.filename = ArtifactFilename(name, generation);
    ArtifactInfo info;
    KSP_RETURN_NOT_OK(save_fn(directory + "/" + entry.filename, &info));
    entry.format_version = info.format_version;
    entry.size_bytes = info.size_bytes;
    entry.crc32c = info.crc32c;
    manifest.entries.push_back(std::move(entry));
    return Status::OK();
  };
  if (rtree_ != nullptr) {
    KSP_RETURN_NOT_OK(save_one("rtree", [&](const std::string& p,
                                            ArtifactInfo* info) {
      return rtree_->Save(p, fs, info);
    }));
  }
  if (reach_ != nullptr) {
    KSP_RETURN_NOT_OK(save_one("reach", [&](const std::string& p,
                                            ArtifactInfo* info) {
      return reach_->Save(p, fs, info);
    }));
  }
  if (alpha_ != nullptr) {
    KSP_RETURN_NOT_OK(save_one("alpha", [&](const std::string& p,
                                            ArtifactInfo* info) {
      return alpha_->Save(p, fs, info);
    }));
  }

  // Publish: until this rename lands, readers still see the previous
  // generation in full.
  KSP_RETURN_NOT_OK(WriteManifest(fs, manifest_path, manifest));

  // Garbage-collect the superseded generation (best effort — a leftover
  // file is harmless, the manifest no longer references it).
  for (const std::string& old_file : previous_files) {
    fs->RemoveFile(directory + "/" + old_file);
  }
  if (saved_generation != nullptr) *saved_generation = generation;
  return Status::OK();
}

Status KspDatabase::LoadIndexes(const std::string& directory,
                                FileSystem* fs) {
  if (fs == nullptr) fs = DefaultFileSystem();
  // Whatever happens next, the caches describe the OLD index generation:
  // drop them before anything is replaced (on failure the DB ends up
  // unprepared, so an empty cache is correct there too).
  InvalidateCache();
  // Any failure leaves the database fully unprepared: a half-loaded index
  // set could silently mix generations.
  auto fail = [this](Status st) {
    rtree_.reset();
    reach_.reset();
    alpha_.reset();
    index_generation_ = 0;
    RefreshSpatialAccessor();
    RefreshDiskBackend();
    return st;
  };

  const std::string manifest_path = directory + "/" + kManifestName;
  if (!fs->FileExists(manifest_path)) {
    return fail(Status::IOError("no MANIFEST in index directory: " +
                                directory));
  }
  auto manifest = ReadManifest(fs, manifest_path);
  if (!manifest.ok()) return fail(manifest.status());

  // Verify every artifact against the manifest BEFORE loading any codec,
  // so a partially written or stale directory is rejected atomically.
  for (const ManifestEntry& e : manifest->entries) {
    const std::string path = directory + "/" + e.filename;
    if (!fs->FileExists(path)) {
      return fail(Status::IOError(
          "manifest references missing artifact: " + path));
    }
    ArtifactInfo info;
    Status st = ChecksumWholeFile(fs, path, &info);
    if (!st.ok()) return fail(st);
    if (info.size_bytes != e.size_bytes || info.crc32c != e.crc32c) {
      return fail(Status::Corruption(
          "artifact does not match its manifest entry (stale manifest?): " +
          path));
    }
  }

  rtree_.reset();
  reach_.reset();
  alpha_.reset();
  for (const ManifestEntry& e : manifest->entries) {
    const std::string path = directory + "/" + e.filename;
    if (e.name == "rtree") {
      auto rtree = RTree::Load(path, fs);
      if (!rtree.ok()) return fail(rtree.status());
      if (rtree->size() != IndexedPlaceCount()) {
        return fail(Status::InvalidArgument(
            "saved R-tree does not match the indexed place count"));
      }
      // Same count is not same places: a shard directory saved for
      // another tile would prune on this tile's MBR over the wrong
      // places, and the α build indexes its WNs by payload.
      if (!LeafPayloadsAre(*rtree, kb_->num_places(),
                           options_.place_subset)) {
        return fail(Status::InvalidArgument(
            "saved R-tree indexes a different place set than this "
            "database (another shard's tile?): " + directory));
      }
      rtree_ = std::make_shared<const RTree>(std::move(*rtree));
    } else if (e.name == "reach") {
      auto reach = ReachabilityIndex::Load(path, fs);
      if (!reach.ok()) return fail(reach.status());
      if (reach->num_base_vertices() != kb_->num_vertices()) {
        return fail(Status::InvalidArgument(
            "saved reachability index does not match the KB"));
      }
      // Reaches is false for every term the file has no vertex for, so
      // Rule 1 would prune every place that holds a term added since.
      if (reach->num_terms() != kb_->num_terms()) {
        return fail(Status::InvalidArgument(
            "saved reachability index covers " +
            std::to_string(reach->num_terms()) + " terms, the KB has " +
            std::to_string(kb_->num_terms()) + ": " + path));
      }
      reach_ = std::make_shared<const ReachabilityIndex>(std::move(*reach));
    } else if (e.name == "alpha") {
      auto alpha = AlphaIndex::Load(path, fs);
      if (!alpha.ok()) return fail(alpha.status());
      // The α entries are keyed by R-tree node ids: the index is only
      // valid together with the R-tree it was built against.
      if (rtree_ == nullptr) {
        return fail(Status::InvalidArgument(
            "alpha index present without its matching R-tree"));
      }
      if (alpha->num_places() != kb_->num_places() ||
          alpha->num_nodes() != rtree_->num_nodes()) {
        return fail(Status::InvalidArgument(
            "saved alpha index does not match the KB / R-tree"));
      }
      // A term the file has no list for reads as α + 1 at every entry,
      // which would over-prune places that do hold it.
      if (alpha->num_terms() != kb_->num_terms()) {
        return fail(Status::InvalidArgument(
            "saved alpha index covers " +
            std::to_string(alpha->num_terms()) + " terms, the KB has " +
            std::to_string(kb_->num_terms()) + ": " + path));
      }
      alpha_ = std::make_shared<const AlphaIndex>(std::move(*alpha));
    } else {
      return fail(Status::Corruption(
          "manifest lists unknown artifact \"" + e.name + "\""));
    }
  }
  index_generation_ = manifest->generation;
  RefreshSpatialAccessor();
  RefreshDiskBackend();
  return Status::OK();
}

KspQuery KspDatabase::MakeQuery(const Point& location,
                                const std::vector<std::string>& keywords,
                                uint32_t k) const {
  KspQuery query;
  query.location = location;
  query.keywords = kb_->LookupTerms(keywords);
  query.k = k;
  return query;
}

}  // namespace ksp
