#ifndef KSP_CORE_DATABASE_H_
#define KSP_CORE_DATABASE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alpha/alpha_index.h"
#include "common/result.h"
#include "common/types.h"
#include "core/accessors.h"
#include "core/query.h"
#include "core/ranking.h"
#include "core/semantic_cache.h"
#include "rdf/knowledge_base.h"
#include "reach/reachability_index.h"
#include "spatial/paged_rtree.h"
#include "spatial/rtree.h"
#include "storage/shared_buffer_pool.h"

namespace ksp {

class ShardedKspDatabase;

/// Which physical representation the query algorithms read indexes
/// from. Both run the exact same algorithm code through the accessor
/// seams (GraphAccessor / SpatialAccessor / PostingsAccessor); results,
/// prune decisions, and committed counters are backend-invariant.
enum class StorageBackend {
  /// Everything memory-resident (CSR graph, RTree, memory postings).
  kMemory,
  /// Graph adjacency, R-tree nodes, and postings are disk pages pulled
  /// through one byte-budgeted SharedBufferPool; only offset tables
  /// stay in memory. For datasets much larger than RAM.
  kDisk,
};

/// Configuration shared by every query on one KspDatabase. The pruning
/// toggles exist for the ablation study; the shipped defaults reproduce
/// the paper's SP setup.
struct KspOptions {
  /// Ranking function f(L, S); Equation 2 (product) by default.
  RankingFunction ranking = RankingFunction::Product();

  /// Follow edges in both directions during TQSP construction and
  /// preprocessing — the paper's §8 future-work variant.
  bool undirected_edges = false;

  /// Pruning Rule 1 (requires BuildReachabilityIndex). Used by SPP and SP.
  bool use_unqualified_pruning = true;
  /// Pruning Rule 2 (dynamic looseness bound). Used by SPP and SP.
  bool use_dynamic_bound_pruning = true;
  /// Pruning Rules 3 and 4 (requires BuildAlphaIndex). Used by SP.
  bool use_alpha_pruning = true;

  /// Per-query wall-clock limit; the paper aborts BSP at 120 s. A run that
  /// hits the limit returns the best places found so far with
  /// stats.completed = false.
  double time_limit_ms = 120000.0;

  /// R-tree construction: STR bulk loading or one-by-one insertion (the
  /// paper inserts one-by-one "for better quality"; Table 5 notes bulk
  /// loading would drastically cut the cost).
  bool bulk_load_rtree = false;
  RTreeOptions rtree_options;

  /// Byte budget of the cross-query semantic cache (DESIGN.md §9) shared
  /// by every executor of this database. 0 (the default) disables caching
  /// entirely — semantic_cache() is then nullptr and the query path is
  /// byte-identical to the pre-cache code; kCacheUnlimited never evicts.
  /// A ShardedKspDatabase holds one cache for all of its shards, so the
  /// budget bounds the whole sharded database.
  size_t cache_budget_bytes = 0;

  /// Storage backend the query algorithms read through (DESIGN.md §10).
  /// kDisk spills the graph, R-tree, and postings to paged files under
  /// `spill_directory` during preparation and serves queries from a
  /// SharedBufferPool of `buffer_pool_budget_bytes`. Reachability labels
  /// and the α-index stay memory-resident on both backends, outside that
  /// budget, and they are not small: at α = 3 the α-index alone is an
  /// order of magnitude larger than everything kDisk spills (DESIGN.md
  /// §12). `ksp_server_{alpha,reach}_index_bytes` report their size.
  StorageBackend backend = StorageBackend::kMemory;
  /// Byte budget of the shared page pool (disk backend only). A
  /// ShardedKspDatabase holds one pool for all of its shards, so the
  /// budget bounds the whole sharded database.
  uint64_t buffer_pool_budget_bytes = 32ULL << 20;
  /// Directory for the disk backend's spill files. Empty (default)
  /// creates a private temp directory, removed when the database is
  /// destroyed; a caller-provided directory is left in place. Every
  /// spill file is written to a temp name and renamed into place, so a
  /// second database spilling into the directory of a live one (a hot
  /// swap) leaves the live one reading its own files.
  std::string spill_directory;

  /// Restricts the spatial indexes (R-tree, and hence the α-index built
  /// over it) to this set of places — the shard tile of DESIGN.md §12.
  /// Empty (the default) means every KB place. The list is canonicalized
  /// (sorted, deduplicated, out-of-range ids dropped) at construction.
  /// Queries then only ever see the subset's places; the graph, postings
  /// and reachability labels still cover the whole KB (semantics are
  /// per-vertex and unaffected by which places are indexed).
  std::vector<PlaceId> place_subset;
};

/// Wall-clock cost of each preprocessing step (Table 5).
struct PreprocessingTimes {
  double rtree_s = 0.0;
  double reachability_s = 0.0;
  double alpha_s = 0.0;
};

/// The shared, read-only side of the kSP system: one KnowledgeBase plus
/// every built index over it (R-tree, keyword-reachability labels,
/// α-radius word neighborhoods) and the options all queries use.
///
/// Lifecycle: construct, then prepare (Build* / PrepareAll / LoadIndexes),
/// then query through any number of QueryExecutors. Preparation mutates
/// the database and must happen-before (and never concurrently with)
/// query execution; once prepared, every accessor is const and the
/// database is safe to share across threads without synchronization —
/// executors never write to it. Queries on an unprepared database fail
/// with an error instead of building indexes implicitly.
class KspDatabase {
 public:
  explicit KspDatabase(const KnowledgeBase* kb)
      : KspDatabase(kb, KspOptions()) {}
  KspDatabase(const KnowledgeBase* kb, KspOptions options)
      : KspDatabase(kb, std::move(options), nullptr, "rtree.bin") {}
  ~KspDatabase();

  KspDatabase(const KspDatabase&) = delete;
  KspDatabase& operator=(const KspDatabase&) = delete;

  /// ---- Index preparation (individually timed; see Table 5) ----

  /// Builds the R-tree over all place vertices. Required by every
  /// query algorithm.
  void BuildRTree();

  /// Builds the R-tree only if absent (safe to call repeatedly).
  void BuildRTreeIfNeeded() {
    if (!has_rtree()) BuildRTree();
  }

  /// Builds the keyword-reachability oracle (Pruning Rule 1).
  void BuildReachabilityIndex();

  /// Builds the α-radius word neighborhoods and their inverted file for
  /// the places the R-tree indexes (a shard: its tile) and the tree's
  /// nodes. Requires the R-tree (builds it first if absent).
  void BuildAlphaIndex(uint32_t alpha);

  /// Convenience: all of the above.
  void PrepareAll(uint32_t alpha);

  /// Persists every built index into `directory` under a new generation:
  /// each artifact is written atomically (temp file + fsync + rename) to a
  /// generation-numbered name (`rtree-000002.bin`, ...), then a MANIFEST
  /// recording every artifact's name, format version, byte size, and
  /// whole-file crc32c is published — also atomically — as the last step.
  /// A save interrupted at ANY point (crash, ENOSPC, I/O error) leaves the
  /// previous generation's MANIFEST and files untouched and loadable;
  /// only a completed save moves the directory forward, after which the
  /// superseded generation's files are garbage-collected best-effort.
  /// Unbuilt indexes are skipped (the manifest records what was saved).
  /// If a MANIFEST exists but cannot be read, the save is refused rather
  /// than risking the live generation. `fs` defaults to
  /// DefaultFileSystem().
  /// `min_generation` forces the new generation to be at least that
  /// number (still always > the directory's current generation) — the
  /// sharded save uses it to keep all shard directories on one aligned
  /// generation; `saved_generation`, when non-null, receives the
  /// generation the save published.
  Status SaveIndexes(const std::string& directory, FileSystem* fs = nullptr,
                     uint64_t min_generation = 0,
                     uint64_t* saved_generation = nullptr) const;

  /// Restores the indexes a SaveIndexes call published in `directory`,
  /// replacing any built ones. The directory's MANIFEST names the
  /// artifacts; a directory without one (missing, empty, or holding only
  /// loose artifact files) yields IOError naming the directory. Every
  /// listed artifact is verified against its recorded size and
  /// whole-file crc32c BEFORE any index is loaded: a missing artifact
  /// yields IOError, a size/checksum mismatch (stale or tampered file)
  /// or an artifact not in the checksummed v2 container yields
  /// Corruption. An index that does not match the KB (or an alpha index
  /// without its R-tree) is rejected with InvalidArgument, and so is an
  /// R-tree whose leaf payloads are not exactly this database's place
  /// set (every KB place, or place_subset — e.g. a shard directory saved
  /// for another tile); that message names the directory. On ANY
  /// failure the database is left fully unprepared — no index survives
  /// half-loaded — so subsequent queries fail with InvalidArgument
  /// instead of mixing index generations.
  Status LoadIndexes(const std::string& directory, FileSystem* fs = nullptr);

  /// ---- Read-only access (thread-safe once prepared) ----

  /// True once the R-tree exists — the minimum preparation every query
  /// algorithm requires.
  bool has_rtree() const { return rtree_ != nullptr; }
  /// Requires has_rtree().
  const RTree& rtree() const { return *rtree_; }
  const RTree* rtree_ptr() const { return rtree_.get(); }
  /// A shard answers this, the pool, the cache and the graph and
  /// postings accessors from its sharded database's store.
  const ReachabilityIndex* reachability_index() const {
    return kb_wide().reach_.get();
  }
  const AlphaIndex* alpha_index() const { return alpha_.get(); }
  PreprocessingTimes preprocessing_times() const { return prep_times_; }
  const KnowledgeBase& kb() const { return *kb_; }
  const KspOptions& options() const { return options_; }
  /// Manifest generation of the last successful LoadIndexes, or 0 for
  /// indexes built in-process.
  /// The serving tier stamps this into responses so clients can tell
  /// which index generation answered across a hot swap.
  uint64_t index_generation() const { return index_generation_; }

  /// ---- Storage-backend seams (DESIGN.md §10) ----
  ///
  /// Every query algorithm reads the graph, R-tree, and postings through
  /// these accessors. On kMemory they are zero-copy views of the
  /// in-memory indexes; on kDisk they resolve to the spill-file
  /// implementations once preparation has written them (falling back to
  /// the memory views if the disk backend failed to come up — queries
  /// are then rejected via storage_backend_status()).

  const GraphAccessor& graph_accessor() const;
  /// Nullptr until the R-tree is built/loaded (same condition as
  /// has_rtree()).
  const SpatialAccessor* spatial_accessor() const;
  const PostingsAccessor& postings_accessor() const;

  /// The page pool the disk backend reads through, or nullptr on the
  /// in-memory backend. Thread-safe; exposed for Stats() snapshots.
  SharedBufferPool* buffer_pool() const {
    const auto& disk = kb_wide().disk_;
    return disk != nullptr ? &disk->pool : nullptr;
  }

  /// OK when the configured backend can serve queries: always on
  /// kMemory; on kDisk, once preparation has spilled the indexes and
  /// opened the paged accessors (a shard: the store's error first).
  /// Executors surface this from CheckPrepared so a failed spill is a
  /// clean query error rather than a silent fallback to memory.
  Status storage_backend_status() const {
    const Status& store_status = kb_wide().disk_status_;
    return store_status.ok() ? disk_status_ : store_status;
  }

  /// The shared cross-query semantic cache, or nullptr when
  /// options().cache_budget_bytes == 0. Thread-safe; executors consult it
  /// on the query path and every index (re)build invalidates it.
  SemanticQueryCache* semantic_cache() const {
    return kb_wide().cache_.get();
  }

  /// Resolves keyword strings against the KB vocabulary and builds a
  /// query. Unknown keywords map to kInvalidTerm (the query then has an
  /// empty result, matching Definition 1).
  KspQuery MakeQuery(const Point& location,
                     const std::vector<std::string>& keywords,
                     uint32_t k) const;

 private:
  friend class ShardedKspDatabase;

  /// A database over `kb`. With a `store` (ShardedKspDatabase only) it
  /// is one shard tile (options.place_subset) that owns just its R-tree,
  /// α index and paged R-tree, and reads everything KB-wide — graph and
  /// postings accessors, pool, reachability labels, semantic cache —
  /// through the store, which must outlive it. On kDisk its paged R-tree
  /// goes into the store's spill directory as `rtree_spill_name`.
  KspDatabase(const KnowledgeBase* kb, KspOptions options,
              const KspDatabase* store, std::string rtree_spill_name);

  /// Page size of the disk backend's spill files and of its pool.
  static constexpr uint32_t kSpillPageSize = 4096;

  /// Everything the disk backend owns. The pool is declared first so it
  /// is destroyed last: the accessors deregister their files from it in
  /// their destructors.
  struct DiskBackendState {
    explicit DiskBackendState(const KspOptions& options)
        : pool(options.buffer_pool_budget_bytes, kSpillPageSize) {}

    SharedBufferPool pool;
    /// Spill directory; owned (created + removed by the database) when
    /// KspOptions::spill_directory was empty.
    std::string directory;
    bool owns_directory = false;
    std::unique_ptr<DiskGraphAccessor> graph;
    std::unique_ptr<DiskPostingsAccessor> postings;
  };

  /// The database holding the KB-wide state: the store for a shard,
  /// this database otherwise.
  const KspDatabase& kb_wide() const {
    return store_ != nullptr ? *store_ : *this;
  }

  /// Number of places the spatial indexes cover: the place subset when
  /// one is configured, else every KB place.
  uint32_t IndexedPlaceCount() const {
    return options_.place_subset.empty()
               ? kb_->num_places()
               : static_cast<uint32_t>(options_.place_subset.size());
  }

  /// Rebinds mem_spatial_ to the current rtree_; call wherever rtree_
  /// is (re)assigned or dropped.
  void RefreshSpatialAccessor();

  /// On kDisk: spills any not-yet-spilled index to the backend
  /// directory, (re)opens the paged accessors, and records the outcome
  /// in disk_status_. The graph and postings are written once (by the
  /// store, for a shard); the paged R-tree is rewritten whenever rtree_
  /// changes (node ids are generation-specific). No-op on kMemory.
  void RefreshDiskBackend();
  Status BuildDiskBackendState();
  /// Writes rtree_ (if built) into `disk`'s directory as
  /// rtree_spill_name_ and opens paged_rtree_ over `disk`'s pool.
  Status SpillRTree(DiskBackendState* disk);

  /// Drops every cached distance/result: index changes invalidate both
  /// cache layers (stale distances would silently corrupt looseness).
  void InvalidateCache() {
    if (SemanticQueryCache* cache = semantic_cache()) cache->Invalidate();
  }

  const KnowledgeBase* kb_;
  KspOptions options_;
  /// The sharded database's whole-KB store; null unless this is a shard.
  const KspDatabase* store_;
  /// File name of the paged R-tree inside the spill directory.
  std::string rtree_spill_name_;

  std::shared_ptr<const RTree> rtree_;
  std::shared_ptr<const ReachabilityIndex> reach_;
  std::shared_ptr<const AlphaIndex> alpha_;
  std::unique_ptr<SemanticQueryCache> cache_;
  PreprocessingTimes prep_times_;
  uint64_t index_generation_ = 0;

  /// Always-available zero-copy views of the in-memory indexes (the
  /// kMemory backend, and the fallback while kDisk is not ready).
  MemoryGraphAccessor mem_graph_;
  MemoryPostingsAccessor mem_postings_;
  std::unique_ptr<MemorySpatialAccessor> mem_spatial_;

  std::unique_ptr<DiskBackendState> disk_;
  /// Registered with disk_'s pool (a shard: the store's); declared after
  /// disk_ so it is destroyed first.
  std::unique_ptr<PagedRTree> paged_rtree_;
  /// Sticky result of the last RefreshDiskBackend(); OK on kMemory.
  Status disk_status_;
};

}  // namespace ksp

#endif  // KSP_CORE_DATABASE_H_
