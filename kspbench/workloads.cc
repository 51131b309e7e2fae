// The four benchmark workloads (README.md gives the why of each). Every
// workload builds its target from a loaded KB inside the timed setup,
// computes reference answers on an independent exact path outside the
// timed region (in a forked child where that path needs a database of its
// own), then drives a closed loop (serve_zipf adds an open-loop
// phase). The traced run replaces the closed loop with paired
// traced/untraced passes. Layers are timed from outside, around calls into
// their public functions, and through the counters those functions
// already return.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/database.h"
#include "core/executor.h"
#include "core/trace.h"
#include "harness.h"
#include "service/client.h"
#include "service/server.h"
#include "shard/partition.h"
#include "shard/remote.h"
#include "shard/sharded_database.h"
#include "shard/sharded_executor.h"

namespace kspbench {
namespace {

using ksp::KnowledgeBase;
using ksp::KspAlgorithm;
using ksp::KspDatabase;
using ksp::KspOptions;
using ksp::KspResult;
using ksp::QueryExecutor;
using ksp::QueryStats;
using ksp::QueryTrace;
using ksp::Result;
using ksp::Status;
using ksp::TracePhase;

constexpr uint32_t kAlpha = 3;
/// Per-query limit far above any query's run time: no answer is cut, so
/// the work done never depends on speed.
constexpr double kTimeLimitMs = 600000.0;
/// disk_smallpool's buffer pool: about a fifth of its page fetches miss.
constexpr uint64_t kSmallPoolBytes = 128ULL << 10;
constexpr uint32_t kNumShards = 4;
constexpr size_t kServeWorkers = 2;
constexpr size_t kServeClients = 2;
/// serve_zipf's semantic-cache budget, below the pool's working set so
/// the cache evicts.
constexpr size_t kServeCacheBytes = 256ULL << 10;
constexpr double kZipfSkew = 1.0;
/// Seed of serve_zipf's Zipf rank sequences. Fixed, so every run draws
/// the same ranks; --seed decides which queries hold them (through the
/// pool and its cost-stratified order).
constexpr uint64_t kPickSeed = 0x5eed;
/// serve_zipf's open-loop offered rate in requests/s: about half of the
/// lowest closed-loop QPS its runs measured (1,083-2,470 over seeds 1-5 on
/// a 4-vCPU x86-64 VM whose host is shared), so that a slow phase of the
/// host does not saturate the server. Fixed, so a faster engine shows as
/// lower open-loop latency at the same load.
constexpr double kServeOfferedRate = 600.0;
/// serve_zipf issues one kSwap per this many open-loop arrivals (three
/// in a 20 s run).
constexpr uint64_t kSwapEveryArrivals = 750;
/// Share of serve_zipf's --seconds the closed loop gets; the open loop
/// gets the rest.
constexpr double kServeClosedShare = 0.75;
/// Untimed queries run before the first timed phase.
constexpr size_t kWarmupQueries = 20;
/// Queries per traced and per untraced block of the traced run.
constexpr size_t kTraceBlock = 8;
/// Setups per untraced run; setup_s is their median.
constexpr int kSetupReps = 3;
/// No further setup starts once setups have taken this long, so an
/// expensive setup does not eat the run's time budget.
constexpr double kSetupBudgetS = 6.0;

KspOptions BaseOptions() {
  KspOptions options;
  options.time_limit_ms = kTimeLimitMs;
  return options;
}

KspAlgorithm OtherAlgorithm(KspAlgorithm algorithm) {
  return algorithm == KspAlgorithm::kSp ? KspAlgorithm::kSpp
                                        : KspAlgorithm::kSp;
}

Result<KspResult> Execute(QueryExecutor* executor, KspAlgorithm algorithm,
                          const ksp::KspQuery& query, QueryStats* stats) {
  return algorithm == KspAlgorithm::kSp ? executor->ExecuteSp(query, stats)
                                        : executor->ExecuteSpp(query, stats);
}

double PerQuery(double total, double queries) {
  return queries > 0 ? total / queries : 0.0;
}

double Ratio(double part, double whole) {
  return whole > 0 ? part / whole : 0.0;
}

// ---------------------------------------------------------------- setup

/// Setup step times of one run, in seconds.
struct SetupTimes {
  double rtree = 0.0;
  double reach = 0.0;
  double alpha = 0.0;
  double spill = 0.0;
  double shard_build = 0.0;
  double load = 0.0;
};

/// Builds the indexes SP and SPP read, timing each public build call.
void BuildIndexes(KspDatabase* db, SetupTimes* times) {
  auto t0 = Clock::now();
  db->BuildRTree();
  times->rtree += SecondsSince(t0);
  t0 = Clock::now();
  db->BuildReachabilityIndex();
  times->reach += SecondsSince(t0);
  t0 = Clock::now();
  db->BuildAlphaIndex(kAlpha);
  times->alpha += SecondsSince(t0);
}

/// Runs `setup` kSetupReps times (once in the traced run; fewer once
/// kSetupBudgetS is spent), calling `reset` untimed before each so only
/// one target is alive. Stores the median total as setup_s and
/// the last rep's step times as setup.*.
template <typename ResetFn, typename SetupFn>
void TimeSetups(const Args& args, ResetFn reset, SetupFn setup,
                WorkloadResult* out) {
  const int reps = args.trace ? 1 : kSetupReps;
  std::vector<double> totals;
  double spent_s = 0.0;
  SetupTimes last;
  for (int r = 0; r < reps && (r == 0 || spent_s < kSetupBudgetS); ++r) {
    reset();
    SetupTimes times;
    const auto t0 = Clock::now();
    setup(&times);
    totals.push_back(SecondsSince(t0));
    spent_s += totals.back();
    last = times;
  }
  std::fprintf(stderr, "setup: %zu reps, median %.3f s\n", totals.size(),
               Median(totals));
  if (!args.trace) {
    out->metrics["setup_s"] = Median(totals);
    return;
  }
  out->metrics["setup.rtree_s"] = last.rtree;
  out->metrics["setup.reach_s"] = last.reach;
  out->metrics["setup.alpha_s"] = last.alpha;
  out->metrics["setup.spill_s"] = last.spill;
  out->metrics["setup.shard_build_s"] = last.shard_build;
  out->metrics["setup.load_s"] = last.load;
}

// ------------------------------------------------------------ reference

/// Reference answers and their committed counters, one per pool slot.
struct Reference {
  std::vector<KspResult> results;
  std::vector<QueryStats> stats;
};

/// Answers every pool query on a fresh executor over `db` (a memory-
/// backend, unsharded database). With `other_algorithm` each query runs
/// on the other exact algorithm (SP <-> SPP), which prunes differently.
Reference ComputeReference(const KspDatabase& db,
                           const std::vector<PoolQuery>& pool,
                           bool other_algorithm) {
  Reference ref;
  QueryExecutor executor(&db);
  for (const PoolQuery& q : pool) {
    QueryStats stats;
    Result<KspResult> result = Execute(
        &executor, other_algorithm ? OtherAlgorithm(q.algorithm) : q.algorithm,
        q.query, &stats);
    KSP_CHECK(result.ok() && stats.completed)
        << "reference query failed: " << result.status().ToString();
    ref.results.push_back(std::move(*result));
    ref.stats.push_back(stats);
  }
  return ref;
}

/// --corrupt-reference: perturbs the reference answer of `slot`, which
/// the caller picks among the first queries the run sends, so that the
/// correctness gate must fail.
void CorruptReference(size_t slot, Reference* ref) {
  std::vector<ksp::KspResultEntry>& entries = ref->results[slot].entries;
  if (entries.empty()) {
    entries.emplace_back();
  } else {
    entries.front().looseness += 1.0;
  }
}

/// The order in which the closed loop visits pool slots. The slots of each
/// (|ψ|, algorithm) class are ranked by the reference run's BFS vertex
/// pops (which track a query's latency far more closely than its |ψ|) and
/// taken at golden-ratio strides through that ranking; the classes then
/// take turns. Every prefix of the order, which is all that a slow
/// workload visits, so holds each class in the pool's proportions and
/// light and heavy queries of each alike, and a run's figures do not hinge
/// on which queries its prefix happened to contain.
std::vector<size_t> CostStratifiedOrder(const std::vector<PoolQuery>& pool,
                                        const Reference& ref) {
  std::map<std::pair<size_t, KspAlgorithm>, std::vector<size_t>> classes;
  for (size_t i = 0; i < pool.size(); ++i) {
    classes[{pool[i].query.keywords.size(), pool[i].algorithm}].push_back(i);
  }
  std::vector<std::vector<size_t>> strided;
  for (auto& [key, slots] : classes) {
    std::stable_sort(slots.begin(), slots.end(), [&](size_t a, size_t b) {
      return ref.stats[a].vertices_visited < ref.stats[b].vertices_visited;
    });
    const size_t n = slots.size();
    size_t stride =
        std::max<size_t>(1, static_cast<size_t>(n * 0.6180339887));
    while (std::gcd(stride, n) != 1) ++stride;
    std::vector<size_t>& out = strided.emplace_back(n);
    for (size_t i = 0; i < n; ++i) out[i] = slots[(i * stride) % n];
  }
  std::vector<size_t> order;
  for (size_t round = 0; order.size() < pool.size(); ++round) {
    for (const std::vector<size_t>& slots : strided) {
      if (round < slots.size()) order.push_back(slots[round]);
    }
  }
  return order;
}

static_assert(std::is_trivially_copyable_v<QueryStats>);

/// Byte image of a Reference: per query the committed counters and the
/// fields SameResult compares (semantic-place trees are not compared).
std::string EncodeReference(const Reference& ref) {
  std::string out;
  const auto put = [&out](const auto& value) {
    out.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  put(ref.results.size());
  for (size_t i = 0; i < ref.results.size(); ++i) {
    put(ref.stats[i]);
    put(ref.results[i].entries.size());
    for (const ksp::KspResultEntry& e : ref.results[i].entries) {
      put(e.place);
      put(e.score);
      put(e.looseness);
      put(e.spatial_distance);
    }
  }
  return out;
}

Reference DecodeReference(const std::string& bytes) {
  size_t pos = 0;
  const auto get = [&](auto* value) {
    KSP_CHECK(pos + sizeof(*value) <= bytes.size()) << "truncated reference";
    std::memcpy(value, bytes.data() + pos, sizeof(*value));
    pos += sizeof(*value);
  };
  Reference ref;
  size_t queries = 0;
  get(&queries);
  ref.results.resize(queries);
  ref.stats.resize(queries);
  for (size_t i = 0; i < queries; ++i) {
    get(&ref.stats[i]);
    size_t entries = 0;
    get(&entries);
    ref.results[i].entries.resize(entries);
    for (ksp::KspResultEntry& e : ref.results[i].entries) {
      get(&e.place);
      get(&e.score);
      get(&e.looseness);
      get(&e.spatial_distance);
    }
  }
  return ref;
}

/// Runs `produce` in a forked child and returns the bytes it made. A
/// reference path's database, indexes and executor so live in the child
/// only, and this process's peak RSS covers the workload's own target.
/// Called before any thread is started.
std::string RunInChild(const std::function<std::string()>& produce) {
  int fds[2];
  KSP_CHECK(pipe(fds) == 0) << "pipe failed";
  const pid_t pid = fork();
  KSP_CHECK(pid >= 0) << "fork failed";
  if (pid == 0) {
    close(fds[0]);
    const std::string bytes = produce();
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = write(fds[1], bytes.data() + sent, bytes.size() - sent);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) _exit(1);
      sent += static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    bytes.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  KSP_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "benchmark child process failed";
  return bytes;
}

/// Names what the work directory's cached artifacts depend on: the
/// engine and benchmark sources (--source-id) and the scale.
std::string CacheKey(const Args& args) {
  char key[24];
  std::snprintf(key, sizeof(key), "%016zx",
                std::hash<std::string>{}(args.source_id + "|" +
                                         std::to_string(args.scale)));
  return key;
}

/// Writes `bytes` under a temporary name and renames it into place, so a
/// later run never reads a partial file.
void WriteFileAtomically(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp" + std::to_string(getpid());
  std::ofstream out(tmp, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  std::error_code ignored;
  if (out) {
    std::filesystem::rename(tmp, path, ignored);
  } else {
    std::filesystem::remove(tmp, ignored);
  }
}

/// Reference answers depend only on the sources, the scale and the seed,
/// so each kind is computed once per seed and kept in the work directory:
/// the disk, shard and serving workloads share the memory reference of a
/// seed, and repeated runs skip the reference path altogether.
Reference CachedReference(const Args& args, const std::string& kind,
                          const std::function<Reference()>& compute) {
  const std::string path = args.work_dir + "/reference-" + kind + "-" +
                           CacheKey(args) + "-seed" +
                           std::to_string(args.seed) + ".bin";
  if (std::ifstream in{path, std::ios::binary}) {
    return DecodeReference(
        std::string(std::istreambuf_iterator<char>(in), {}));
  }
  Reference ref = compute();
  WriteFileAtomically(path, EncodeReference(ref));
  return ref;
}

/// The memory-backend unsharded reference of the disk, shard and serving
/// workloads, built and run in a child process.
Reference MemoryReference(const Args& args, const KnowledgeBase& kb,
                          const std::vector<PoolQuery>& pool) {
  return CachedReference(args, "memory", [&] {
    return DecodeReference(RunInChild([&] {
      KspDatabase db(&kb, BaseOptions());
      SetupTimes ignored;
      BuildIndexes(&db, &ignored);
      return EncodeReference(
          ComputeReference(db, pool, /*other_algorithm=*/false));
    }));
  });
}

/// Two saved generations of the same memory-backend indexes, between
/// which serve_zipf hot-swaps. They do not depend on the seed, so they are
/// built once per work directory, in a child process.
std::array<std::string, 2> SavedGenerations(const Args& args,
                                            const KnowledgeBase& kb) {
  const std::string root = args.work_dir + "/generations-" + CacheKey(args);
  const std::array<std::string, 2> dirs = {root + "/a", root + "/b"};
  if (std::filesystem::exists(root + "/complete")) return dirs;
  std::filesystem::remove_all(root);
  RunInChild([&] {
    KspDatabase built(&kb, BaseOptions());
    SetupTimes ignored;
    BuildIndexes(&built, &ignored);
    for (const std::string& dir : dirs) {
      const Status st = built.SaveIndexes(dir);
      KSP_CHECK(st.ok()) << st.ToString();
    }
    return std::string();
  });
  WriteFileAtomically(root + "/complete", "");
  return dirs;
}

// --------------------------------------------------- in-process targets

/// Span layer of each executor trace phase; its per-query self time is
/// reported as "<layer>_us". Rule-2 aborts are zero-duration events and
/// shard dispatch is timed by the benchmark itself.
const char* PhaseLayer(TracePhase phase) {
  switch (phase) {
    case TracePhase::kRtreeNn:
      return "spatial.rtree_nn";
    case TracePhase::kBfsExpand:
      return "core.bfs_expand";
    case TracePhase::kTqspCompute:
      return "core.tqsp_compute";
    case TracePhase::kRule1Prune:
      return "reach.rule1_prune";
    case TracePhase::kDocFetch:
      return "text.doc_fetch";
    case TracePhase::kCacheLookup:
      return "cache.lookup";
    case TracePhase::kPageIo:
      return "storage.page_io";
    default:
      return nullptr;
  }
}

using PhaseUs = std::vector<double>;  // indexed by TracePhase

void AddPhases(const QueryTrace& trace, PhaseUs* phase_us) {
  phase_us->resize(ksp::kNumTracePhases);
  for (size_t p = 0; p < ksp::kNumTracePhases; ++p) {
    (*phase_us)[p] += static_cast<double>(
        trace.PhaseExclusiveUs(static_cast<TracePhase>(p)));
  }
}

/// Records the executor's per-phase exclusive times as children of
/// `parent`. Exclusive times partition the traced time, so the parent's
/// self time is the executor work outside every named phase.
void AddPhaseSpans(const PhaseUs& phase_us, uint64_t request,
                   Clock::time_point start, int64_t parent, SpanLog* log) {
  for (size_t p = 0; p < phase_us.size(); ++p) {
    const char* layer = PhaseLayer(static_cast<TracePhase>(p));
    if (layer != nullptr && phase_us[p] > 0) {
      log->Add(layer, request, start, phase_us[p], parent);
    }
  }
}

/// One in-process query path under test.
class InProcessTarget {
 public:
  virtual ~InProcessTarget() = default;
  virtual Result<KspResult> Run(const PoolQuery& q, QueryStats* stats) = 0;
  /// Runs with every layer traced and appends the query's spans.
  virtual Result<KspResult> RunTraced(const PoolQuery& q, QueryStats* stats,
                                      uint64_t request, SpanLog* log) = 0;
};

/// QueryExecutor::ExecuteSp/ExecuteSpp on one database (either backend).
class ExecutorTarget final : public InProcessTarget {
 public:
  explicit ExecutorTarget(const KspDatabase* db) : executor_(db) {
    trace_.set_record_spans(false);
  }

  Result<KspResult> Run(const PoolQuery& q, QueryStats* stats) override {
    return Execute(&executor_, q.algorithm, q.query, stats);
  }

  Result<KspResult> RunTraced(const PoolQuery& q, QueryStats* stats,
                              uint64_t request, SpanLog* log) override {
    executor_.set_trace(&trace_);
    const auto t0 = Clock::now();
    Result<KspResult> result =
        Execute(&executor_, q.algorithm, q.query, stats);
    const auto t1 = Clock::now();
    executor_.set_trace(nullptr);
    PhaseUs phase_us;
    AddPhases(trace_, &phase_us);
    const int64_t root = log->Add("core.exec", request, t0, t1);
    AddPhaseSpans(phase_us, request, t0, root, log);
    return result;
  }

 private:
  QueryExecutor executor_;
  QueryTrace trace_;
};

/// A shard channel that behaves like InProcessShardChannel and also
/// exposes its executor's phase trace: the traced run needs per-phase
/// self times inside each shard, which the library channel keeps private.
class TracedShardChannel final : public ksp::ShardChannel {
 public:
  explicit TracedShardChannel(const KspDatabase* db)
      : db_(db), executor_(db) {
    trace_.set_record_spans(false);
    executor_.set_trace(&trace_);
  }

  Status Query(const ksp::ShardQueryRequest& request,
               const std::atomic<double>* live_theta,
               ksp::ShardQueryResponse* response) override {
    const auto t0 = Clock::now();
    *response = ksp::ShardQueryResponse();
    response->generation = db_->index_generation();
    const ksp::KspQuery query =
        db_->MakeQuery(request.location, request.keywords, request.k);
    seed_theta_.store(request.theta_seed, std::memory_order_relaxed);
    executor_.set_shared_theta(live_theta != nullptr ? live_theta
                                                     : &seed_theta_);
    QueryStats stats;
    const auto e0 = Clock::now();
    Result<KspResult> result =
        Execute(&executor_, request.algorithm, query, &stats);
    exec_us_ +=
        std::chrono::duration<double, std::micro>(Clock::now() - e0).count();
    executor_.set_shared_theta(nullptr);
    AddPhases(trace_, &phase_us_);
    response->stats = stats;
    if (result.ok()) {
      response->result = std::move(*result);
    } else {
      response->code = result.status().code();
      response->message = result.status().message();
    }
    dispatch_us_ +=
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    return Status::OK();
  }

  /// Moves this query's accumulated times into the caller's sums.
  void Drain(double* dispatch_us, double* exec_us, PhaseUs* phase_us) {
    *dispatch_us += dispatch_us_;
    *exec_us += exec_us_;
    phase_us->resize(ksp::kNumTracePhases);
    for (size_t p = 0; p < phase_us_.size(); ++p) {
      (*phase_us)[p] += phase_us_[p];
    }
    dispatch_us_ = 0.0;
    exec_us_ = 0.0;
    phase_us_.assign(phase_us_.size(), 0.0);
  }

 private:
  const KspDatabase* db_;
  QueryExecutor executor_;
  QueryTrace trace_;
  std::atomic<double> seed_theta_{0.0};
  double dispatch_us_ = 0.0;
  double exec_us_ = 0.0;
  PhaseUs phase_us_;
};

/// ShardedExecutor::Execute over in-process channels. The untraced path
/// uses the library's channels; the traced path uses TracedShardChannel.
class ShardTarget final : public InProcessTarget {
 public:
  ShardTarget(const ksp::ShardedKspDatabase* db, bool traced) : plain_(db) {
    if (!traced) return;
    std::vector<std::unique_ptr<ksp::ShardChannel>> channels(
        db->num_shards());
    for (uint32_t i = 0; i < db->num_shards(); ++i) {
      if (db->shard(i) == nullptr) continue;
      auto channel = std::make_unique<TracedShardChannel>(db->shard(i));
      traced_channels_.push_back(channel.get());
      channels[i] = std::move(channel);
    }
    traced_ = std::make_unique<ksp::ShardedExecutor>(db, std::move(channels));
  }

  Result<KspResult> Run(const PoolQuery& q, QueryStats* stats) override {
    return plain_.Execute(q.algorithm, q.query, stats);
  }

  Result<KspResult> RunTraced(const PoolQuery& q, QueryStats* stats,
                              uint64_t request, SpanLog* log) override {
    const auto t0 = Clock::now();
    Result<KspResult> result = traced_->Execute(q.algorithm, q.query, stats);
    const auto t1 = Clock::now();
    double dispatch_us = 0.0;
    double exec_us = 0.0;
    PhaseUs phase_us;
    for (TracedShardChannel* channel : traced_channels_) {
      channel->Drain(&dispatch_us, &exec_us, &phase_us);
    }
    const int64_t root = log->Add("shard.exec", request, t0, t1);
    const int64_t dispatch =
        log->Add("shard.dispatch", request, t0, dispatch_us, root);
    const int64_t core =
        log->Add("core.exec", request, t0, exec_us, dispatch);
    AddPhaseSpans(phase_us, request, t0, core, log);
    return result;
  }

 private:
  ksp::ShardedExecutor plain_;
  std::vector<TracedShardChannel*> traced_channels_;
  std::unique_ptr<ksp::ShardedExecutor> traced_;
};

// ------------------------------------------------------ in-process load

/// Checks one answer of pool slot `index`; false counts the query failed.
using CheckFn =
    std::function<bool(size_t index, const KspResult&, const QueryStats&)>;

bool Succeeded(const Result<KspResult>& result, const QueryStats& stats,
               const CheckFn& check, size_t index) {
  return result.ok() && stats.completed && check(index, *result, stats);
}

/// One caller, back to back, walking `order` cyclically for `seconds`.
LoadPhase InProcessClosedLoop(InProcessTarget* target,
                              const std::vector<PoolQuery>& pool,
                              const std::vector<size_t>& order,
                              const CheckFn& check, double seconds) {
  LoadPhase phase;
  const double cpu0 = ProcessCpuSeconds();
  const auto start = Clock::now();
  const auto end = start + SecondsToDuration(seconds);
  for (size_t j = 0; Clock::now() < end; ++j) {
    const size_t i = order[j % order.size()];
    QueryStats stats;
    const auto t0 = Clock::now();
    Result<KspResult> result = target->Run(pool[i], &stats);
    phase.Record(MsBetween(t0, Clock::now()),
                 Succeeded(result, stats, check, i));
  }
  phase.wall_s = SecondsSince(start);
  phase.cpu_s = ProcessCpuSeconds() - cpu0;
  return phase;
}

/// The traced run's replacement for the closed loop.
struct TracedRun {
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  SpanLog spans;
  QueryStats counters;  // summed over traced queries
  uint64_t useful = 0;  // result entries of traced queries
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Blocks of kTraceBlock pool queries run untraced and traced, the order
/// alternating per block, so both arms see the same queries equally warm.
TracedRun InProcessTracedPasses(InProcessTarget* target,
                                const std::vector<PoolQuery>& pool,
                                const std::vector<size_t>& order,
                                const CheckFn& check, double seconds) {
  TracedRun run;
  const auto end = Clock::now() + SecondsToDuration(seconds);
  for (size_t block = 0; Clock::now() < end; ++block) {
    for (int arm = 0; arm < 2; ++arm) {
      const bool traced = (arm == 0) == (block % 2 == 0);
      for (size_t j = 0; j < kTraceBlock; ++j) {
        const size_t i = order[(block * kTraceBlock + j) % order.size()];
        QueryStats stats;
        const auto t0 = Clock::now();
        Result<KspResult> result =
            traced ? target->RunTraced(pool[i], &stats, run.traced_ms.size(),
                                       &run.spans)
                   : target->Run(pool[i], &stats);
        const double ms = MsBetween(t0, Clock::now());
        const bool ok = Succeeded(result, stats, check, i);
        ++run.attempted;
        if (!ok) ++run.failed;
        if (!traced) {
          run.untraced_ms.push_back(ms);
          continue;
        }
        run.traced_ms.push_back(ms);
        run.counters.Accumulate(stats);
        if (ok) run.useful += result->entries.size();
      }
    }
  }
  return run;
}

void PutClosedMetrics(const LoadPhase& closed, WorkloadResult* out) {
  out->metrics["cpu_ms_per_query"] = closed.CpuMsPerQuery();
  out->metrics["qps"] = closed.Qps();
  out->metrics["p50_ms"] = Percentile(closed.latency_ms, 0.50);
  out->metrics["p99_ms"] = Percentile(closed.latency_ms, 0.99);
  out->fingerprint["closed_samples"] =
      static_cast<double>(closed.latency_ms.size());
  std::fprintf(stderr,
               "closed loop: %zu samples (%llu failed) in %.2f s; %.4f CPU "
               "ms/query, qps %.2f\n",
               closed.latency_ms.size(),
               static_cast<unsigned long long>(closed.failed), closed.wall_s,
               closed.CpuMsPerQuery(), closed.Qps());
  if (closed.latency_ms.size() < 1000) {
    std::fprintf(stderr,
                 "warning: closed loop has fewer than 1000 samples; p99 is "
                 "resolved by fewer than 10 samples beyond it\n");
  }
}

/// Per-query work counters of the executor and shard layers.
void PutCounterMetrics(const QueryStats& sum, double n, WorkloadResult* out) {
  auto& m = out->metrics;
  const auto per_query = [n](uint64_t total) {
    return PerQuery(static_cast<double>(total), n);
  };
  m["core.tqsp_computations"] = per_query(sum.tqsp_computations);
  m["core.vertices_visited"] = per_query(sum.vertices_visited);
  m["core.pruned_rule1"] = per_query(sum.pruned_unqualified);
  m["core.pruned_rule2"] = per_query(sum.pruned_dynamic_bound);
  m["core.pruned_rule3"] = per_query(sum.pruned_alpha_place);
  m["core.pruned_rule4"] = per_query(sum.pruned_alpha_node);
  m["reach.queries"] = per_query(sum.reachability_queries);
  m["spatial.nodes_accessed"] = per_query(sum.rtree_nodes_accessed);
  m["shard.visited"] = per_query(sum.shards_visited);
  m["shard.pruned"] = per_query(sum.shards_pruned);
  m["shard.prune_rate"] =
      Ratio(static_cast<double>(sum.shards_pruned),
            static_cast<double>(sum.shards_visited + sum.shards_pruned));
}

/// Per-query layer times from the traced run's spans: the phase layers'
/// and each parent's own work as self time, the roots as totals.
void PutSpanMetrics(const SpanLog& spans, double n, WorkloadResult* out) {
  std::map<std::string, double> self = spans.SelfTimeUs();
  std::map<std::string, double> total = spans.TotalTimeUs();
  auto& m = out->metrics;
  for (size_t p = 0; p < ksp::kNumTracePhases; ++p) {
    if (const char* layer = PhaseLayer(static_cast<TracePhase>(p))) {
      m[std::string(layer) + "_us"] = PerQuery(self[layer], n);
    }
  }
  m["core.exec_ms"] = PerQuery(total["core.exec"], n) / 1e3;
  m["core.other_us"] = PerQuery(self["core.exec"], n);
  m["shard.exec_ms"] = PerQuery(total["shard.exec"], n) / 1e3;
  m["shard.self_us"] = PerQuery(self["shard.exec"], n);
  m["shard.dispatch_us"] = PerQuery(self["shard.dispatch"], n);
  m["service.call_ms"] = PerQuery(total["service.call"], n) / 1e3;
  m["service.server_ms"] = PerQuery(total["service.server"], n) / 1e3;
  m["service.overhead_ms"] = PerQuery(self["service.call"], n) / 1e3;
}

/// Tracing validity: overhead of the traced arm over the untraced one,
/// and the summed layer self times over the untraced mean latency.
void PutTraceChecks(const std::vector<double>& traced_ms,
                    const std::vector<double>& untraced_ms,
                    double layer_sum_ms, WorkloadResult* out) {
  const double untraced = Mean(untraced_ms);
  out->metrics["bench.trace_overhead_frac"] =
      Ratio(Mean(traced_ms), untraced) - 1.0;
  out->metrics["bench.layer_sum_frac"] = Ratio(layer_sum_ms, untraced);
  std::fprintf(stderr,
               "traced run: %zu traced / %zu untraced queries; layer self "
               "times sum to %.4f ms against an untraced mean of %.4f ms\n",
               traced_ms.size(), untraced_ms.size(), layer_sum_ms, untraced);
}

void WriteSpans(const Args& args, const SpanLog& spans) {
  const std::string path =
      args.work_dir + "/spans-" + args.workload + ".json";
  if (spans.WriteJson(path)) {
    std::fprintf(stderr, "spans: %zu written to %s\n", spans.size(),
                 path.c_str());
  }
}

/// The shared load loop of mem_mix, disk_smallpool and shard_k4: one caller
/// in a closed loop over the cost-stratified order for the whole of
/// --seconds. `check` compares answers with `ref`.
void DriveInProcess(const Args& args, InProcessTarget* target,
                    const std::vector<PoolQuery>& pool, Reference* ref,
                    const CheckFn& check, ksp::SharedBufferPool* buffer_pool,
                    WorkloadResult* out) {
  const std::vector<size_t> order = CostStratifiedOrder(pool, *ref);
  if (args.corrupt_reference) CorruptReference(order.front(), ref);
  for (size_t i = 0; i < std::min(kWarmupQueries, pool.size()); ++i) {
    QueryStats stats;
    (void)target->Run(pool[order[order.size() - 1 - i]], &stats);
  }
  if (!args.trace) {
    const LoadPhase closed =
        InProcessClosedLoop(target, pool, order, check, args.seconds);
    PutClosedMetrics(closed, out);
    out->attempted = closed.attempted;
    out->failed = closed.failed;
    return;
  }
  const ksp::SharedBufferPool::Stats pool_before =
      buffer_pool != nullptr ? buffer_pool->GetStats()
                             : ksp::SharedBufferPool::Stats();
  const TracedRun run =
      InProcessTracedPasses(target, pool, order, check, args.seconds);
  const ksp::SharedBufferPool::Stats pool_after =
      buffer_pool != nullptr ? buffer_pool->GetStats()
                             : ksp::SharedBufferPool::Stats();
  out->attempted = run.attempted;
  out->failed = run.failed;

  const double n = static_cast<double>(run.traced_ms.size());
  PutCounterMetrics(run.counters, n, out);
  out->metrics["core.tqsp_useful_ratio"] =
      Ratio(static_cast<double>(run.useful),
            static_cast<double>(run.counters.tqsp_computations));
  PutSpanMetrics(run.spans, n, out);
  // Pool counters cover both arms of the traced passes.
  const double all = static_cast<double>(run.attempted);
  const double hits = static_cast<double>(pool_after.hits - pool_before.hits);
  const double misses =
      static_cast<double>(pool_after.misses - pool_before.misses);
  out->metrics["storage.pool_hits"] = PerQuery(hits, all);
  out->metrics["storage.pool_misses"] = PerQuery(misses, all);
  out->metrics["storage.pool_evictions"] = PerQuery(
      static_cast<double>(pool_after.evictions - pool_before.evictions), all);
  out->metrics["storage.pool_hit_rate"] = Ratio(hits, hits + misses);

  double self_sum_us = 0.0;
  for (const auto& [layer, us] : run.spans.SelfTimeUs()) self_sum_us += us;
  PutTraceChecks(run.traced_ms, run.untraced_ms,
                 PerQuery(self_sum_us, n) / 1e3, out);
  WriteSpans(args, run.spans);
}

// ---------------------------------------------------------------- serve

using CounterMap = std::map<std::string, uint64_t>;

CounterMap Counters(ksp::KspServer* server) {
  return server->metrics()->Snapshot().counters;
}

double Delta(const CounterMap& before, const CounterMap& after,
             const std::string& name) {
  const auto a = before.find(name);
  const auto b = after.find(name);
  const uint64_t x = a == before.end() ? 0 : a->second;
  const uint64_t y = b == after.end() ? 0 : b->second;
  return static_cast<double>(y - x);
}

/// Zipf-skewed picks from the pool. Rank r maps to slot `order[r]` of the
/// cost-stratified order, so the few hottest queries, which draw most of
/// the picks, hold light and heavy queries alike under every seed.
class ZipfPicker {
 public:
  explicit ZipfPicker(std::vector<size_t> order)
      : sampler_(order.size(), kZipfSkew), order_(std::move(order)) {}
  size_t Pick(ksp::Rng* rng) const { return order_[sampler_.Sample(rng)]; }
  size_t Hottest() const { return order_.front(); }

 private:
  ksp::ZipfSampler sampler_;
  std::vector<size_t> order_;
};

struct ServeContext {
  uint16_t port = 0;
  const std::vector<PoolQuery>* pool = nullptr;
  const Reference* ref = nullptr;
  const ZipfPicker* picker = nullptr;
  ksp::Gauge* queue_depth = nullptr;
};

/// One request over `client`: a transport error, any typed rejection
/// (kUnavailable, kDeadlineExceeded, ...) or a wrong answer is a failure.
/// Returns the response's server-side time through `server_ms`.
bool ServeOnce(ksp::KspClient* client, const ServeContext& ctx, size_t i,
               Clock::time_point* done, double* server_ms) {
  const PoolQuery& q = (*ctx.pool)[i];
  Result<ksp::ServiceResponse> response = client->Query(
      q.algorithm, q.query.location, q.keywords, q.query.k);
  *done = Clock::now();
  if (!response.ok() || !response->ok()) return false;
  *server_ms = response->total_ms;
  return SameWireResult(response->entries, ctx.ref->results[i]);
}

/// Per-client-thread samples of one serving phase.
struct ServeLoad {
  LoadPhase phase;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  SpanLog spans;
  /// CPU time of the client threads themselves.
  double client_cpu_s = 0.0;
  double queue_depth_sum = 0.0;
  uint64_t queue_samples = 0;

  void Merge(const ServeLoad& other) {
    phase.Merge(other.phase);
    client_cpu_s += other.client_cpu_s;
    traced_ms.insert(traced_ms.end(), other.traced_ms.begin(),
                     other.traced_ms.end());
    untraced_ms.insert(untraced_ms.end(), other.untraced_ms.begin(),
                       other.untraced_ms.end());
    spans.Append(other.spans);
    queue_depth_sum += other.queue_depth_sum;
    queue_samples += other.queue_samples;
  }
};

/// kServeClients connections, each sending back to back. In the traced
/// run, alternate blocks of kTraceBlock requests record client spans.
ServeLoad ServeClosedLoop(const ServeContext& ctx, double seconds,
                          bool traced) {
  std::vector<ServeLoad> per_client(kServeClients);
  std::vector<std::thread> threads;
  const double cpu0 = ProcessCpuSeconds();
  const auto start = Clock::now();
  const auto end = start + SecondsToDuration(seconds);
  for (size_t c = 0; c < kServeClients; ++c) {
    threads.emplace_back([&, c] {
      ServeLoad& load = per_client[c];
      const double client_cpu0 = ThreadCpuSeconds();
      Result<ksp::KspClient> client =
          ksp::KspClient::Connect("127.0.0.1", ctx.port);
      if (!client.ok()) {
        load.phase.Record(kLatencyLimitMs, false);
        return;
      }
      ksp::Rng rng(kPickSeed + c);
      for (uint64_t n = 0; Clock::now() < end; ++n) {
        const size_t i = ctx.picker->Pick(&rng);
        double server_ms = 0.0;
        Clock::time_point done;
        const auto t0 = Clock::now();
        const bool ok = ServeOnce(&*client, ctx, i, &done, &server_ms);
        const double ms = MsBetween(t0, done);
        load.phase.Record(ms, ok);
        if (!traced) continue;
        if ((n / kTraceBlock) % 2 == c % 2) {
          load.untraced_ms.push_back(ms);
          continue;
        }
        load.traced_ms.push_back(ms);
        const uint64_t request = (static_cast<uint64_t>(c) << 48) | n;
        const int64_t root =
            load.spans.Add("service.call", request, t0, done);
        load.spans.Add("service.server", request, t0, server_ms * 1e3, root);
      }
      load.client_cpu_s = ThreadCpuSeconds() - client_cpu0;
    });
  }
  for (std::thread& t : threads) t.join();
  ServeLoad merged;
  for (const ServeLoad& load : per_client) merged.Merge(load);
  merged.phase.wall_s = SecondsSince(start);
  // The server's CPU time: the clients' own work is the benchmark's.
  merged.phase.cpu_s = ProcessCpuSeconds() - cpu0 - merged.client_cpu_s;
  return merged;
}

/// Fixed-rate arrivals shared by kServeClients connections: each takes
/// the next arrival, waits for its due time and times the request from
/// it. A third connection swaps between the two saved generations every
/// kSwapEveryArrivals arrivals; each swap must advance the generation.
ServeLoad ServeOpenLoop(const ServeContext& ctx, double seconds,
                        double rate,
                        const std::array<std::string, 2>& generations,
                        uint64_t serving_generation, LoadPhase* swaps) {
  const uint64_t arrivals =
      std::max<uint64_t>(1, static_cast<uint64_t>(seconds * rate));
  std::vector<size_t> picks(arrivals);
  ksp::Rng pick_rng(kPickSeed + kServeClients);
  for (size_t& pick : picks) pick = ctx.picker->Pick(&pick_rng);
  const Clock::duration interval = SecondsToDuration(1.0 / rate);
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  std::atomic<uint64_t> next{0};
  std::vector<ServeLoad> per_client(kServeClients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kServeClients; ++c) {
    threads.emplace_back([&, c] {
      ServeLoad& load = per_client[c];
      Result<ksp::KspClient> client =
          ksp::KspClient::Connect("127.0.0.1", ctx.port);
      for (uint64_t k = next.fetch_add(1); k < arrivals;
           k = next.fetch_add(1)) {
        const auto due = start + interval * k;
        if (Clock::now() < due) {
          std::this_thread::sleep_until(due);
          load.phase.RecordLag(MsBetween(due, Clock::now()));
        }
        load.queue_depth_sum += ctx.queue_depth->Value();
        ++load.queue_samples;
        double server_ms = 0.0;
        Clock::time_point done = Clock::now();
        const bool ok = client.ok() && ServeOnce(&*client, ctx, picks[k],
                                                 &done, &server_ms);
        load.phase.Record(MsBetween(due, done), ok);
      }
    });
  }
  threads.emplace_back([&] {
    Result<ksp::KspClient> client =
        ksp::KspClient::Connect("127.0.0.1", ctx.port);
    uint64_t generation = serving_generation;
    for (uint64_t s = 1; s * kSwapEveryArrivals < arrivals; ++s) {
      while (next.load() < s * kSwapEveryArrivals) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      const auto t0 = Clock::now();
      Result<ksp::ServiceResponse> response =
          client.ok() ? client->Swap(generations[s % 2])
                      : Result<ksp::ServiceResponse>(client.status());
      const double ms = MsBetween(t0, Clock::now());
      const bool ok = response.ok() && response->ok() &&
                      response->generation > generation;
      if (ok) generation = response->generation;
      swaps->Record(ms, ok);
    }
  });
  for (std::thread& t : threads) t.join();
  ServeLoad merged;
  for (const ServeLoad& load : per_client) merged.Merge(load);
  merged.phase.wall_s = SecondsSince(start);
  return merged;
}

/// Executor-layer metrics of the serving workers, from the server's
/// registry: per-query deltas of the ksp_* counters and phase totals.
void PutServerCoreMetrics(const CounterMap& before, const CounterMap& after,
                          WorkloadResult* out) {
  auto& m = out->metrics;
  const double queries = Delta(before, after, "ksp_queries_total");
  const auto per_query = [&](const std::string& name) {
    return PerQuery(Delta(before, after, name), queries);
  };
  const double exec_us = per_query("ksp_query_wall_us_total");
  m["core.exec_ms"] = exec_us / 1e3;
  m["core.tqsp_computations"] = per_query("ksp_tqsp_computations_total");
  m["core.vertices_visited"] = per_query("ksp_bfs_vertices_visited_total");
  for (int rule = 1; rule <= 4; ++rule) {
    m["core.pruned_rule" + std::to_string(rule)] =
        per_query("ksp_pruned_rule" + std::to_string(rule) + "_total");
  }
  m["reach.queries"] = per_query("ksp_reachability_queries_total");
  m["spatial.nodes_accessed"] = per_query("ksp_rtree_nodes_accessed_total");
  m["cache.evictions"] = per_query("ksp_cache_evictions_total");
  double phases_us = 0.0;
  for (size_t p = 0; p < ksp::kNumTracePhases; ++p) {
    const TracePhase phase = static_cast<TracePhase>(p);
    const double us = per_query(std::string("ksp_phase_") +
                                ksp::TracePhaseName(phase) + "_us_total");
    phases_us += us;
    if (const char* layer = PhaseLayer(phase)) {
      m[std::string(layer) + "_us"] = us;
    }
  }
  m["core.other_us"] = exec_us - phases_us;
}

}  // namespace

WorkloadResult RunMemMix(const Args& args, const KnowledgeBase& kb,
                         const std::vector<PoolQuery>& pool) {
  WorkloadResult out;
  std::unique_ptr<KspDatabase> db;
  TimeSetups(
      args, [&] { db.reset(); },
      [&](SetupTimes* times) {
        db = std::make_unique<KspDatabase>(&kb, BaseOptions());
        BuildIndexes(db.get(), times);
      },
      &out);
  // SP answers are checked against SPP and SPP against SP: two exact
  // algorithms that prune differently.
  Reference ref = CachedReference(args, "other-algorithm", [&] {
    return ComputeReference(*db, pool, /*other_algorithm=*/true);
  });
  ExecutorTarget target(db.get());
  const CheckFn check = [&](size_t i, const KspResult& result,
                            const QueryStats&) {
    return SameResult(result, ref.results[i]);
  };
  DriveInProcess(args, &target, pool, &ref, check, nullptr, &out);
  return out;
}

WorkloadResult RunDiskSmallPool(const Args& args, const KnowledgeBase& kb,
                                const std::vector<PoolQuery>& pool) {
  WorkloadResult out;
  Reference ref = MemoryReference(args, kb, pool);
  const std::string spill = args.scratch_dir + "/spill";
  KspOptions options = BaseOptions();
  options.backend = ksp::StorageBackend::kDisk;
  options.buffer_pool_budget_bytes = kSmallPoolBytes;
  options.spill_directory = spill;
  std::unique_ptr<KspDatabase> db;
  TimeSetups(
      args,
      [&] {
        db.reset();
        std::filesystem::remove_all(spill);
      },
      [&](SetupTimes* times) {
        // Construction spills the graph and postings; BuildRTree then
        // writes the paged R-tree.
        const auto t0 = Clock::now();
        db = std::make_unique<KspDatabase>(&kb, options);
        times->spill += SecondsSince(t0);
        BuildIndexes(db.get(), times);
      },
      &out);
  KSP_CHECK(db->storage_backend_status().ok())
      << db->storage_backend_status().ToString();
  ExecutorTarget target(db.get());
  // Same answers as the memory backend, and the same committed work.
  const CheckFn check = [&](size_t i, const KspResult& result,
                            const QueryStats& stats) {
    return SameResult(result, ref.results[i]) &&
           SameWorkCounters(stats, ref.stats[i]);
  };
  DriveInProcess(args, &target, pool, &ref, check, db->buffer_pool(),
                 &out);
  out.fingerprint["bufferpool_budget_bytes"] =
      static_cast<double>(kSmallPoolBytes);
  return out;
}

WorkloadResult RunShardK4(const Args& args, const KnowledgeBase& kb,
                          const std::vector<PoolQuery>& pool) {
  WorkloadResult out;
  Reference ref = MemoryReference(args, kb, pool);
  std::unique_ptr<ksp::ShardedKspDatabase> db;
  TimeSetups(
      args, [&] { db.reset(); },
      [&](SetupTimes* times) {
        const auto t0 = Clock::now();
        auto built = ksp::ShardedKspDatabase::Build(
            &kb, BaseOptions(), ksp::StrPartition(kb, kNumShards), kAlpha);
        KSP_CHECK(built.ok()) << built.status().ToString();
        db = std::move(*built);
        times->shard_build += SecondsSince(t0);
      },
      &out);
  ShardTarget target(db.get(), args.trace);
  const CheckFn check = [&](size_t i, const KspResult& result,
                            const QueryStats&) {
    return SameResult(result, ref.results[i]);
  };
  DriveInProcess(args, &target, pool, &ref, check, nullptr, &out);
  out.fingerprint["shards"] = kNumShards;
  return out;
}

WorkloadResult RunServeZipf(const Args& args, const KnowledgeBase& kb,
                            const std::vector<PoolQuery>& pool) {
  WorkloadResult out;
  // Untimed: the memory reference and two saved generations of the same
  // indexes for the hot swaps.
  Reference ref = MemoryReference(args, kb, pool);
  const std::array<std::string, 2> generations = SavedGenerations(args, kb);

  KspOptions options = BaseOptions();
  options.cache_budget_bytes = kServeCacheBytes;
  ksp::ServerOptions server_options;
  server_options.num_workers = kServeWorkers;
  std::shared_ptr<KspDatabase> db;
  std::unique_ptr<ksp::KspServer> server;
  // Setup: load a saved generation, start the server, install it.
  TimeSetups(
      args,
      [&] {
        server.reset();
        db.reset();
      },
      [&](SetupTimes* times) {
        const auto t0 = Clock::now();
        db = std::make_shared<KspDatabase>(&kb, options);
        const Status loaded = db->LoadIndexes(generations[0]);
        KSP_CHECK(loaded.ok()) << loaded.ToString();
        times->load += SecondsSince(t0);
        server =
            std::make_unique<ksp::KspServer>(&kb, options, server_options);
        KSP_CHECK(server->Start().ok());
        KSP_CHECK(server->ServeDatabase(db).ok());
      },
      &out);

  const ZipfPicker picker(CostStratifiedOrder(pool, ref));
  if (args.corrupt_reference) CorruptReference(picker.Hottest(), &ref);
  ServeContext ctx;
  ctx.port = server->port();
  ctx.pool = &pool;
  ctx.ref = &ref;
  ctx.picker = &picker;
  ctx.queue_depth = server->metrics()->GetGauge("ksp_server_queue_depth");
  {
    Result<ksp::KspClient> client =
        ksp::KspClient::Connect("127.0.0.1", ctx.port);
    KSP_CHECK(client.ok()) << client.status().ToString();
    for (size_t i = 0; i < std::min(kWarmupQueries, pool.size()); ++i) {
      Clock::time_point done;
      double server_ms = 0.0;
      (void)ServeOnce(&*client, ctx, i, &done, &server_ms);
    }
  }

  const double closed_s = args.seconds * kServeClosedShare;
  const double open_s = args.seconds - closed_s;
  const double rate = kServeOfferedRate;
  const ksp::SemanticQueryCache& cache = *db->semantic_cache();
  const auto dg0 = cache.dg_stats();
  const auto result0 = cache.result_stats();
  const CounterMap counters0 = Counters(server.get());
  const ServeLoad closed = ServeClosedLoop(ctx, closed_s, args.trace);
  const CounterMap counters1 = Counters(server.get());
  const auto dg1 = cache.dg_stats();
  const auto result1 = cache.result_stats();
  const double cache_bytes = static_cast<double>(cache.TotalBytes());
  LoadPhase swaps;
  const ServeLoad open =
      ServeOpenLoop(ctx, open_s, rate, generations,
                    server->serving_generation(), &swaps);
  const CounterMap counters2 = Counters(server.get());
  server->Stop();

  out.attempted =
      closed.phase.attempted + open.phase.attempted + swaps.attempted;
  out.failed = closed.phase.failed + open.phase.failed + swaps.failed;
  out.fingerprint["offered_rate_qps"] = rate;
  out.fingerprint["cache_budget_bytes"] =
      static_cast<double>(kServeCacheBytes);
  out.fingerprint["swaps"] = static_cast<double>(swaps.attempted);
  std::fprintf(stderr, "swaps: %llu (%llu failed), mean %.2f ms\n",
               static_cast<unsigned long long>(swaps.attempted),
               static_cast<unsigned long long>(swaps.failed),
               Mean(swaps.latency_ms));
  std::fprintf(stderr,
               "open loop: %zu samples (%llu failed), generator lag %.4f ms\n",
               open.phase.latency_ms.size(),
               static_cast<unsigned long long>(open.phase.failed),
               open.phase.MeanLagMs());
  if (!args.trace) {
    PutClosedMetrics(closed.phase, &out);
    out.metrics["open_p50_ms"] = Percentile(open.phase.latency_ms, 0.50);
    out.metrics["open_p99_ms"] = Percentile(open.phase.latency_ms, 0.99);
    out.fingerprint["open_samples"] =
        static_cast<double>(open.phase.latency_ms.size());
    return out;
  }

  PutSpanMetrics(closed.spans, static_cast<double>(closed.traced_ms.size()),
                 &out);
  PutServerCoreMetrics(counters0, counters1, &out);
  auto& m = out.metrics;
  const auto hit_rate = [](const auto& before, const auto& after) {
    const double hits = static_cast<double>(after.hits - before.hits);
    return Ratio(hits,
                 hits + static_cast<double>(after.misses - before.misses));
  };
  m["cache.dg_hit_rate"] = hit_rate(dg0, dg1);
  m["cache.result_hit_rate"] = hit_rate(result0, result1);
  m["cache.bytes"] = cache_bytes;
  m["service.queue_depth"] =
      PerQuery(open.queue_depth_sum, static_cast<double>(open.queue_samples));
  m["service.rejections"] =
      Delta(counters0, counters2, "ksp_server_overload_rejections_total");
  m["service.swap_ms"] = Mean(swaps.latency_ms);
  m["bench.gen_lag_ms"] = open.phase.MeanLagMs();
  // The call splits into wire/queue overhead plus the server's query time.
  PutTraceChecks(closed.traced_ms, closed.untraced_ms,
                 m["service.overhead_ms"] + m["core.exec_ms"], &out);
  WriteSpans(args, closed.spans);
  return out;
}

}  // namespace kspbench
