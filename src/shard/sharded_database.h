#ifndef KSP_SHARD_SHARDED_DATABASE_H_
#define KSP_SHARD_SHARDED_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/file.h"
#include "common/result.h"
#include "core/database.h"
#include "shard/partition.h"

namespace ksp {

/// A spatially-sharded KspDatabase (DESIGN.md §12): one whole-KB store
/// plus one shard KspDatabase per non-empty partition tile. The store is
/// a KspDatabase with no R-tree that holds what depends only on the
/// graph, once: the graph and postings accessors, on kDisk the spill
/// directory and its one SharedBufferPool, the vertex-keyed
/// reachability labels, and the semantic cache. A shard owns only what
/// grows with its tile (KspOptions::place_subset): its R-tree, its α
/// index and, on kDisk, its paged R-tree, spilled into the store's
/// directory as `rtree-shard-%06u.bin`. It answers every other accessor
/// from the store, so the pool and cache budgets bound the whole sharded
/// database. Shards run under the shared θ (ShardChannel), which keeps
/// the cache's result layer off; its dg layer is per vertex and exact
/// for every tile. The whole ensemble is immutable once built/loaded and
/// safe to share across threads, exactly like a single KspDatabase.
///
/// Directory layout: `<dir>/shard-%06u/` holds a shard's rtree and
/// alpha, `<dir>/kb/` the store's reach, and the SHARDS manifest
/// (version 2: partition tile lists) is written last. Each part is a
/// KspDatabase::SaveIndexes directory, saved shards first, in ascending
/// order, then kb/, with a generation floor carried forward, so an
/// interrupted save leaves a generation-aligned PREFIX updated; Load
/// refuses any directory whose parts disagree on generation (a torn
/// save can therefore never serve a mixed index set).
class ShardedKspDatabase {
 public:
  /// Builds every shard in-process: the store's reachability labels
  /// (when base.use_unqualified_pruning), then per non-empty tile an
  /// R-tree and, when alpha > 0, an α-index over it. Empty tiles get a
  /// null shard slot. Fails on an invalid partition.
  static Result<std::unique_ptr<ShardedKspDatabase>> Build(
      const KnowledgeBase* kb, const KspOptions& base,
      const ShardPartition& partition, uint32_t alpha);

  /// Restores a sharded directory previously written by Save: reads the
  /// SHARDS manifest, rebuilds the store and shard skeletons with the
  /// persisted partition, loads kb/ into the store and each shard's
  /// indexes on the options' backend, and verifies every shard landed on
  /// the store's generation — mixed generations (torn save, tampering)
  /// are Corruption and nothing is served. A SHARDS version-1 directory
  /// (reachability labels in every shard directory) is Corruption naming
  /// the version; saving the database again writes version 2.
  static Result<std::unique_ptr<ShardedKspDatabase>> Load(
      const KnowledgeBase* kb, const KspOptions& base,
      const std::string& directory, FileSystem* fs = nullptr);

  /// Saves every non-empty shard (ascending shard order), then kb/, on one
  /// aligned generation (see class comment), then the SHARDS manifest.
  /// Re-saving over a misaligned directory aligns it.
  Status Save(const std::string& directory, FileSystem* fs = nullptr) const;

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  /// Null for an empty tile. Query it through a ShardChannel: the
  /// semantic cache is the store's, and only the shared θ keeps one
  /// tile's cached top-k from answering another's.
  const KspDatabase* shard(uint32_t i) const { return shards_[i].get(); }
  const std::vector<PlaceId>& shard_places(uint32_t i) const {
    return partition_.tiles[i];
  }
  /// MBR of the shard's place locations; Rect::Empty() for empty tiles.
  const Rect& shard_mbr(uint32_t i) const { return mbrs_[i]; }

  const KnowledgeBase& kb() const { return *kb_; }
  const ShardPartition& partition() const { return partition_; }
  /// The base options every shard was configured from (place_subset
  /// empty — each shard holds its own tile-restricted copy).
  const KspOptions& options() const { return base_options_; }
  /// The common generation of kb/ and the shards: LoadIndexes' manifest
  /// generation after Load, 0 for in-process builds.
  uint64_t index_generation() const { return index_generation_; }

  /// The store's backend status if failed, else the first failed
  /// shard's, OK otherwise (mirrors KspDatabase::storage_backend_status
  /// for the serving tier).
  Status storage_backend_status() const;

  /// Resolves keyword strings against the shared KB vocabulary (same
  /// contract as KspDatabase::MakeQuery).
  KspQuery MakeQuery(const Point& location,
                     const std::vector<std::string>& keywords,
                     uint32_t k) const;

 private:
  ShardedKspDatabase() = default;

  /// Shared skeleton of Build/Load: validates the partition and creates
  /// the store and the per-tile KspDatabase shells (nothing built).
  static Result<std::unique_ptr<ShardedKspDatabase>> MakeShells(
      const KnowledgeBase* kb, const KspOptions& base,
      ShardPartition partition);

  const KnowledgeBase* kb_ = nullptr;
  KspOptions base_options_;
  ShardPartition partition_;
  std::vector<Rect> mbrs_;
  /// Declared before shards_ so it is destroyed after them: each shard's
  /// paged R-tree is registered with the store's pool.
  std::unique_ptr<KspDatabase> store_;
  std::vector<std::unique_ptr<KspDatabase>> shards_;
  uint64_t index_generation_ = 0;
};

/// True iff `directory` holds a sharded database (a SHARDS manifest).
/// The serving tier uses this to route ServeDirectory between the single
/// and sharded load paths.
bool IsShardedDirectory(const std::string& directory,
                        FileSystem* fs = nullptr);

}  // namespace ksp

#endif  // KSP_SHARD_SHARDED_DATABASE_H_
