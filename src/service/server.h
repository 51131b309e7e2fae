#ifndef KSP_SERVICE_SERVER_H_
#define KSP_SERVICE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/metrics.h"
#include "common/status.h"
#include "core/database.h"
#include "service/protocol.h"
#include "service/request_queue.h"
#include "shard/sharded_database.h"
#include "shard/sharded_executor.h"

namespace ksp {

class KnowledgeBase;
class QueryExecutor;

struct ServerOptions {
  /// TCP listen address. Port 0 binds an ephemeral port (read it back via
  /// port() after Start — the tests and the smoke bench rely on this).
  std::string host = "127.0.0.1";
  uint16_t port = 0;

  /// Query worker threads, each owning one QueryExecutor per serving
  /// generation (rebuilt lazily after a hot swap). Start refuses 0.
  size_t num_workers = 4;
  /// Admission queue bound; a full queue answers kUnavailable immediately.
  size_t queue_capacity = 64;
  /// Backoff hint stamped into kUnavailable rejections.
  uint64_t overload_retry_after_ms = 25;

  /// Deadline applied to requests that carry none (0 = unlimited).
  uint64_t default_deadline_ms = 0;
  /// Fast-reject bound on request frames, enforced before decoding.
  uint32_t max_frame_bytes = 1 << 20;
};

/// Deadline-aware network front-end over the kSP engine (DESIGN.md §11).
///
/// Threading: one acceptor, one thread per connection (frame parse, fast
/// rejects, inline health/metrics/swap), and a fixed worker pool that
/// drains the bounded admission queue for kQuery/kExplain. A request's
/// CancellationToken is armed at admission, so its deadline covers queue
/// wait; workers poll it cooperatively inside the engine.
///
/// Hot swap: ServeDirectory loads generation N+1 into a fresh KspDatabase
/// while workers keep answering from N, then flips one shared_ptr under a
/// mutex. In-flight queries pin their generation via the shared_ptr (zero
/// dropped or mixed-generation queries); each fresh database starts with
/// a fresh semantic cache, so the flip and the cache invalidation are the
/// same single atomic transition. Responses carry the serving generation
/// that answered.
class KspServer {
 public:
  /// `kb` must outlive the server; every serving database is built over
  /// this one KB.
  KspServer(const KnowledgeBase* kb, KspOptions db_options,
            ServerOptions options);
  ~KspServer();

  KspServer(const KspServer&) = delete;
  KspServer& operator=(const KspServer&) = delete;

  /// Installs an already-prepared database (e.g. PrepareAll in-process)
  /// as the next serving generation. Callable before Start and while
  /// serving.
  Status ServeDatabase(std::shared_ptr<KspDatabase> db);

  /// Installs an already-built sharded database as the next serving
  /// generation. One install flips every shard at once: the ensemble
  /// lives behind the same single ServingState pointer as an unsharded
  /// database, so in-flight queries keep their whole shard set pinned
  /// and no query ever observes a mix of shard generations.
  Status ServeShardedDatabase(std::shared_ptr<ShardedKspDatabase> db);

  /// Loads saved indexes from `directory` into a fresh database and
  /// installs it — the hot-swap path (also reachable over the wire via
  /// MessageType::kSwap). A directory carrying a SHARDS manifest loads
  /// as a sharded database (every shard verified to be on one common
  /// generation before anything is served); otherwise as a single
  /// database. On failure the current generation keeps serving
  /// untouched.
  Status ServeDirectory(const std::string& directory);

  /// Binds, listens, and starts the acceptor + worker threads. A server
  /// with no database yet answers queries kUnavailable until one is
  /// installed. InvalidArgument when options.num_workers is 0.
  Status Start();

  /// Drains and joins everything. Queued requests are answered
  /// kUnavailable; in-flight queries finish normally. Idempotent.
  void Stop();

  /// The bound port (after Start).
  uint16_t port() const { return bound_port_; }

  /// Serving install counter: 0 before the first ServeDatabase/-Directory,
  /// then +1 per successful install.
  uint64_t serving_generation() const;

  /// The server's registry (server counters + worker query metrics).
  MetricsRegistry* metrics() { return &registry_; }

 private:
  /// One installed generation — exactly one of `db` / `sharded` is set.
  /// Workers and in-flight requests hold the shared_ptr, so a superseded
  /// database (or whole shard ensemble) dies only after its last query
  /// finishes.
  struct ServingState {
    std::shared_ptr<KspDatabase> db;
    std::shared_ptr<ShardedKspDatabase> sharded;
    uint64_t generation = 0;
  };

  /// One admitted kQuery/kExplain awaiting a worker. The owning
  /// connection thread blocks in Wait(); the worker fills the encoded
  /// response and signals.
  struct PendingRequest {
    ServiceRequest request;
    CancellationToken token;
    std::string response_payload;
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;

    void Complete(std::string payload);
    void Wait();
  };

  void AcceptLoop();
  void ConnectionLoop(int fd, uint64_t conn_id);
  void WorkerLoop();

  std::shared_ptr<ServingState> CurrentState() const;
  Status InstallState(std::shared_ptr<ServingState> state);
  /// Exactly one of `executor` / `sharded` is non-null, matching the
  /// serving state the worker cached.
  void HandleQuery(PendingRequest* request, QueryExecutor* executor,
                   ShardedExecutor* sharded, const ServingState& state);
  ServiceResponse HandleHealth();
  ServiceResponse HandleMetrics();
  ServiceResponse HandleSwap(const ServiceRequest& request);
  /// Frame-level validation shared by every request type; OK or the
  /// typed rejection to send back.
  Status ValidateRequest(const ServiceRequest& request) const;

  const KnowledgeBase* kb_;
  const KspOptions db_options_;
  const ServerOptions options_;

  MetricsRegistry registry_;
  struct {
    Counter* requests = nullptr;
    Counter* overload_rejections = nullptr;
    Counter* malformed_rejections = nullptr;
    Counter* deadline_exceeded = nullptr;
    Counter* swaps = nullptr;
    Gauge* queue_depth = nullptr;
    Gauge* alpha_index_bytes = nullptr;
    Gauge* reach_index_bytes = nullptr;
    Histogram* request_ms = nullptr;
  } server_metrics_;

  mutable std::mutex state_mu_;
  std::shared_ptr<ServingState> serving_;  // null until first install
  uint64_t installs_ = 0;

  BoundedRequestQueue<PendingRequest*> queue_;

  std::mutex conn_mu_;
  std::map<uint64_t, int> live_connections_;  // conn_id -> fd
  std::map<uint64_t, std::thread> connection_threads_;
  /// Connections whose thread has left ConnectionLoop; AcceptLoop joins
  /// them before it starts the next thread, Stop() joins the rest.
  std::vector<uint64_t> finished_connections_;
  uint64_t next_conn_id_ = 0;

  std::vector<std::thread> workers_;
  std::thread acceptor_;
  int listen_fd_ = -1;
  uint16_t bound_port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
};

}  // namespace ksp

#endif  // KSP_SERVICE_SERVER_H_
