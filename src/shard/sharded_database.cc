#include "shard/sharded_database.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/io_util.h"
#include "common/varint.h"

namespace ksp {

namespace {

constexpr uint32_t kShardsMagic = 0x4B535348u;  // "KSSH"
/// Version 2: the reachability labels live once, in the store's `kb/`
/// directory. Version 1 directories kept a copy in every shard directory.
constexpr uint32_t kShardsVersion = 2;
constexpr char kShardsName[] = "SHARDS";
constexpr char kStoreDirName[] = "kb";

std::string ShardDirName(uint32_t shard) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%06u", shard);
  return buf;
}

Status WriteShardsManifest(FileSystem* fs, const std::string& path,
                           const ShardPartition& partition) {
  return WriteArtifactAtomically(
      fs, path, kShardsMagic, kShardsVersion,
      [&partition](ChecksummedWriter* w) {
        std::string body;
        PutVarint64(&body, partition.tiles.size());
        for (const std::vector<PlaceId>& tile : partition.tiles) {
          PutVarint64(&body, tile.size());
          // Tiles are sorted place-id lists (KspOptions::place_subset
          // canonicalization), so deltas stay small under varint.
          PlaceId previous = 0;
          for (PlaceId p : tile) {
            PutVarint64(&body, p - previous);
            previous = p;
          }
        }
        return w->WriteSection(body);
      });
}

Result<ShardPartition> ReadShardsManifest(FileSystem* fs,
                                          const std::string& path) {
  auto file = fs->NewRandomAccessFile(path);
  if (!file.ok()) return file.status();
  ChecksummedReader reader(file->get());
  uint32_t version = 0;
  KSP_RETURN_NOT_OK(reader.Open(kShardsMagic, &version));
  if (version != kShardsVersion) {
    return CorruptionAt(path, 4,
                        "unsupported SHARDS version " +
                            std::to_string(version) +
                            " (re-save the sharded database)");
  }
  std::string body;
  const uint64_t body_offset = reader.offset();
  KSP_RETURN_NOT_OK(reader.ReadSection(&body));
  KSP_RETURN_NOT_OK(reader.ExpectEnd());

  ShardPartition partition;
  size_t pos = 0;
  auto parse = [&]() -> Status {
    uint64_t num_tiles = 0;
    KSP_RETURN_NOT_OK(GetVarint64(body, &pos, &num_tiles));
    if (num_tiles > body.size() - pos + 1) {
      return Status::Corruption("tile count exceeds manifest size");
    }
    partition.tiles.resize(num_tiles);
    for (std::vector<PlaceId>& tile : partition.tiles) {
      uint64_t count = 0;
      KSP_RETURN_NOT_OK(GetVarint64(body, &pos, &count));
      if (count > body.size() - pos + 1) {
        return Status::Corruption("tile size exceeds manifest size");
      }
      tile.reserve(count);
      uint64_t previous = 0;
      for (uint64_t i = 0; i < count; ++i) {
        uint64_t delta = 0;
        KSP_RETURN_NOT_OK(GetVarint64(body, &pos, &delta));
        previous += delta;
        if (previous > kInvalidPlace) {
          return Status::Corruption("tile place id overflows PlaceId");
        }
        tile.push_back(static_cast<PlaceId>(previous));
      }
    }
    if (pos != body.size()) {
      return Status::Corruption("trailing bytes in SHARDS manifest");
    }
    return Status::OK();
  };
  Status st = parse();
  if (!st.ok()) return CorruptionAt(path, body_offset + pos, st.message());
  return partition;
}

}  // namespace

Result<std::unique_ptr<ShardedKspDatabase>> ShardedKspDatabase::MakeShells(
    const KnowledgeBase* kb, const KspOptions& base,
    ShardPartition partition) {
  if (kb == nullptr) {
    return Status::InvalidArgument("sharded database requires a KB");
  }
  KSP_RETURN_NOT_OK(ValidatePartition(*kb, partition));
  // Tiles are sets; store them in ascending place-id order so
  // shard_places, the SHARDS manifest's delta encoding, and the shards'
  // place_subset all share one canonical form.
  for (std::vector<PlaceId>& tile : partition.tiles) {
    std::sort(tile.begin(), tile.end());
  }

  auto db = std::unique_ptr<ShardedKspDatabase>(new ShardedKspDatabase());
  db->kb_ = kb;
  db->base_options_ = base;
  db->base_options_.place_subset.clear();
  db->partition_ = std::move(partition);
  // The store spills the graph and postings (kDisk) on construction.
  db->store_ = std::make_unique<KspDatabase>(kb, db->base_options_);
  db->mbrs_.reserve(db->partition_.tiles.size());
  db->shards_.resize(db->partition_.tiles.size());
  for (uint32_t i = 0; i < db->partition_.num_tiles(); ++i) {
    const std::vector<PlaceId>& tile = db->partition_.tiles[i];
    db->mbrs_.push_back(TileMbr(*kb, tile));
    if (tile.empty()) continue;  // Empty tile: no shard database.
    KspOptions options = db->base_options_;
    options.place_subset = tile;
    db->shards_[i] = std::unique_ptr<KspDatabase>(
        new KspDatabase(kb, std::move(options), db->store_.get(),
                        "rtree-" + ShardDirName(i) + ".bin"));
  }
  return db;
}

Result<std::unique_ptr<ShardedKspDatabase>> ShardedKspDatabase::Build(
    const KnowledgeBase* kb, const KspOptions& base,
    const ShardPartition& partition, uint32_t alpha) {
  KSP_ASSIGN_OR_RETURN(auto db, MakeShells(kb, base, partition));

  // Reachability labels are vertex-keyed and identical for every shard:
  // the store builds them once.
  if (base.use_unqualified_pruning) db->store_->BuildReachabilityIndex();
  KSP_RETURN_NOT_OK(db->store_->storage_backend_status());
  for (std::unique_ptr<KspDatabase>& shard : db->shards_) {
    if (shard == nullptr) continue;
    shard->BuildRTree();
    if (alpha > 0) shard->BuildAlphaIndex(alpha);
    KSP_RETURN_NOT_OK(shard->storage_backend_status());
  }
  return db;
}

Result<std::unique_ptr<ShardedKspDatabase>> ShardedKspDatabase::Load(
    const KnowledgeBase* kb, const KspOptions& base,
    const std::string& directory, FileSystem* fs) {
  if (fs == nullptr) fs = DefaultFileSystem();
  KSP_ASSIGN_OR_RETURN(
      auto partition,
      ReadShardsManifest(fs, directory + "/" + kShardsName));
  KSP_ASSIGN_OR_RETURN(auto db,
                       MakeShells(kb, base, std::move(partition)));

  // Load the store, then every shard, and require one common generation:
  // a torn save (aligned prefix at generation g+1, the rest still at g)
  // must never be served as a mixed index set.
  KSP_RETURN_NOT_OK(
      db->store_->LoadIndexes(directory + "/" + kStoreDirName, fs));
  const uint64_t generation = db->store_->index_generation();
  for (uint32_t i = 0; i < db->num_shards(); ++i) {
    KspDatabase* shard = db->shards_[i].get();
    if (shard == nullptr) continue;
    KSP_RETURN_NOT_OK(
        shard->LoadIndexes(directory + "/" + ShardDirName(i), fs));
    if (shard->index_generation() != generation) {
      return Status::Corruption(
          "shard generations diverge (torn save?): shard " +
          ShardDirName(i) + " is at generation " +
          std::to_string(shard->index_generation()) + ", " +
          kStoreDirName + " at " + std::to_string(generation));
    }
  }
  db->index_generation_ = generation;
  return db;
}

Status ShardedKspDatabase::Save(const std::string& directory,
                                FileSystem* fs) const {
  if (fs == nullptr) fs = DefaultFileSystem();
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);

  // Every shard directory in ascending order, then kb/, with the
  // generation floor carried forward: SaveIndexes publishes one past the
  // directory's generation, at least the floor, and returns it. Over an
  // aligned directory that is one aligned pass; an interrupted save leaves
  // an aligned prefix bumped, which Load detects and refuses. The floor
  // only rises, so the pass is aligned iff its first and last agree. When
  // some directory was ahead of those before it (a torn save, or one
  // bumped by hand), a second pass at one past the highest aligns all.
  std::vector<std::pair<const KspDatabase*, std::string>> parts;
  for (uint32_t i = 0; i < num_shards(); ++i) {
    if (shards_[i] == nullptr) continue;
    parts.emplace_back(shards_[i].get(), directory + "/" + ShardDirName(i));
  }
  parts.emplace_back(store_.get(), directory + "/" + kStoreDirName);
  uint64_t floor = 0;
  uint64_t first = 0;
  for (const auto& [db, part_dir] : parts) {
    KSP_RETURN_NOT_OK(db->SaveIndexes(part_dir, fs, floor, &floor));
    if (first == 0) first = floor;
  }
  if (first != floor) {
    for (const auto& [db, part_dir] : parts) {
      KSP_RETURN_NOT_OK(db->SaveIndexes(part_dir, fs, floor + 1));
    }
  }
  // SHARDS last: a directory is a loadable sharded database only once
  // the partition is durably recorded.
  return WriteShardsManifest(fs, directory + "/" + kShardsName,
                             partition_);
}

Status ShardedKspDatabase::storage_backend_status() const {
  KSP_RETURN_NOT_OK(store_->storage_backend_status());
  for (const std::unique_ptr<KspDatabase>& shard : shards_) {
    if (shard == nullptr) continue;
    KSP_RETURN_NOT_OK(shard->storage_backend_status());
  }
  return Status::OK();
}

bool IsShardedDirectory(const std::string& directory, FileSystem* fs) {
  if (fs == nullptr) fs = DefaultFileSystem();
  return fs->FileExists(directory + "/" + kShardsName);
}

KspQuery ShardedKspDatabase::MakeQuery(
    const Point& location, const std::vector<std::string>& keywords,
    uint32_t k) const {
  return store_->MakeQuery(location, keywords, k);
}

}  // namespace ksp
