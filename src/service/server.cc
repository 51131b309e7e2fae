#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <set>
#include <utility>

#include "alpha/alpha_index.h"
#include "common/strings.h"
#include "common/timer.h"
#include "core/executor.h"
#include "rdf/knowledge_base.h"
#include "reach/reachability_index.h"
#include "service/protocol.h"

namespace ksp {

namespace {

ServiceResponse ErrorResponse(const Status& status,
                              uint64_t retry_after_ms = 0) {
  ServiceResponse response;
  response.code = status.code();
  response.message = status.message();
  response.retry_after_ms = retry_after_ms;
  return response;
}

}  // namespace

void KspServer::PendingRequest::Complete(std::string payload) {
  // Notify while still holding the mutex: the owning connection thread
  // destroys this stack-allocated request as soon as Wait() returns, so
  // signalling after unlock races the signal against the destructor.
  // Holding the lock pins the waiter in its mutex re-acquire until the
  // signal call has fully returned.
  std::lock_guard<std::mutex> lock(mu);
  response_payload = std::move(payload);
  done = true;
  cv.notify_one();
}

void KspServer::PendingRequest::Wait() {
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
}

KspServer::KspServer(const KnowledgeBase* kb, KspOptions db_options,
                     ServerOptions options)
    : kb_(kb),
      db_options_(std::move(db_options)),
      options_(std::move(options)),
      queue_(options_.queue_capacity) {
  server_metrics_.requests = registry_.GetCounter("ksp_server_requests_total");
  server_metrics_.overload_rejections =
      registry_.GetCounter("ksp_server_overload_rejections_total");
  server_metrics_.malformed_rejections =
      registry_.GetCounter("ksp_server_malformed_rejections_total");
  server_metrics_.deadline_exceeded =
      registry_.GetCounter("ksp_server_deadline_exceeded_total");
  server_metrics_.swaps = registry_.GetCounter("ksp_server_swaps_total");
  server_metrics_.queue_depth = registry_.GetGauge("ksp_server_queue_depth");
  server_metrics_.alpha_index_bytes =
      registry_.GetGauge("ksp_server_alpha_index_bytes");
  server_metrics_.reach_index_bytes =
      registry_.GetGauge("ksp_server_reach_index_bytes");
  server_metrics_.request_ms =
      registry_.GetHistogram("ksp_server_request_ms");
}

KspServer::~KspServer() { Stop(); }

Status KspServer::InstallState(std::shared_ptr<ServingState> state) {
  // The memory-resident index budgets of the incoming generation, summed
  // over its shards; shards share one reachability index, counted once.
  std::vector<const KspDatabase*> dbs;
  if (state->db != nullptr) dbs.push_back(state->db.get());
  if (state->sharded != nullptr) {
    for (uint32_t i = 0; i < state->sharded->num_shards(); ++i) {
      if (state->sharded->shard(i) != nullptr) {
        dbs.push_back(state->sharded->shard(i));
      }
    }
  }
  uint64_t alpha_bytes = 0;
  uint64_t reach_bytes = 0;
  std::set<const ReachabilityIndex*> reaches;
  for (const KspDatabase* db : dbs) {
    if (db->alpha_index() != nullptr) {
      alpha_bytes += db->alpha_index()->SizeBytes();
    }
    const ReachabilityIndex* reach = db->reachability_index();
    if (reach != nullptr && reaches.insert(reach).second) {
      reach_bytes += reach->MemoryUsageBytes();
    }
  }

  std::lock_guard<std::mutex> lock(state_mu_);
  state->generation = ++installs_;
  server_metrics_.alpha_index_bytes->Set(static_cast<double>(alpha_bytes));
  server_metrics_.reach_index_bytes->Set(static_cast<double>(reach_bytes));
  // The one-pointer flip IS the swap: workers snapshot `serving_` per
  // request, in-flight queries keep their generation — for a sharded
  // install, the entire shard ensemble — pinned through the shared_ptr,
  // and the incoming database carries its own (empty) semantic cache —
  // flip and cache invalidation are one atomic step.
  serving_ = std::move(state);
  return Status::OK();
}

Status KspServer::ServeDatabase(std::shared_ptr<KspDatabase> db) {
  if (db == nullptr) {
    return Status::InvalidArgument("ServeDatabase requires a database");
  }
  if (!db->has_rtree()) {
    return Status::InvalidArgument(
        "serving database has no R-tree: prepare or load indexes first");
  }
  auto state = std::make_shared<ServingState>();
  state->db = std::move(db);
  return InstallState(std::move(state));
}

Status KspServer::ServeShardedDatabase(
    std::shared_ptr<ShardedKspDatabase> db) {
  if (db == nullptr) {
    return Status::InvalidArgument(
        "ServeShardedDatabase requires a database");
  }
  KSP_RETURN_NOT_OK(db->storage_backend_status());
  auto state = std::make_shared<ServingState>();
  state->sharded = std::move(db);
  return InstallState(std::move(state));
}

Status KspServer::ServeDirectory(const std::string& directory) {
  // Load off to the side first; the live generation keeps serving and is
  // untouched by a failed load.
  if (IsShardedDirectory(directory)) {
    KSP_ASSIGN_OR_RETURN(
        auto fresh, ShardedKspDatabase::Load(kb_, db_options_, directory));
    return ServeShardedDatabase(std::move(fresh));
  }
  auto fresh = std::make_shared<KspDatabase>(kb_, db_options_);
  KSP_RETURN_NOT_OK(fresh->LoadIndexes(directory));
  KSP_RETURN_NOT_OK(fresh->storage_backend_status());
  return ServeDatabase(std::move(fresh));
}

uint64_t KspServer::serving_generation() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return serving_ != nullptr ? serving_->generation : 0;
}

std::shared_ptr<KspServer::ServingState> KspServer::CurrentState() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return serving_;
}

Status KspServer::Start() {
  // Only workers answer admitted requests and check their deadlines:
  // without one, the first query would wait forever, and so would Stop.
  if (options_.num_workers == 0) {
    return Status::InvalidArgument("server needs at least one worker");
  }
  if (started_.exchange(true)) {
    return Status::InvalidArgument("server already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable,
               sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("unparseable listen host: " +
                                   options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status st = Status::IOError(std::string("bind failed: ") +
                                      std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  bound_port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 128) < 0) {
    const Status st = Status::IOError(std::string("listen failed: ") +
                                      std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void KspServer::Stop() {
  if (!started_.load() || stopping_.exchange(true)) return;
  // 1. Stop accepting: a shutdown unblocks the acceptor's accept().
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  // 2. Drain the queue: workers answer every admitted request (stopping_
  //    turns them into kUnavailable without executing), which unblocks
  //    the connection threads waiting in PendingRequest::Wait.
  queue_.Close();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // 3. Unblock connection reads and join the connection threads (each
  //    closes its own fd on the way out).
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const auto& [id, fd] : live_connections_) {
      ::shutdown(fd, SHUT_RDWR);
    }
  }
  for (auto& [id, t] : connection_threads_) t.join();
  connection_threads_.clear();
  finished_connections_.clear();
}

void KspServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // Listener shut down (or unrecoverable): stop accepting.
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    // An exited but unjoined thread keeps its stack mapped: join the
    // finished ones, outside the lock, before starting another.
    std::vector<std::thread> finished;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      for (const uint64_t id : finished_connections_) {
        finished.push_back(
            std::move(connection_threads_.extract(id).mapped()));
      }
      finished_connections_.clear();
      const uint64_t conn_id = next_conn_id_++;
      live_connections_[conn_id] = fd;
      connection_threads_.emplace(
          conn_id,
          std::thread([this, fd, conn_id] { ConnectionLoop(fd, conn_id); }));
    }
    for (std::thread& t : finished) t.join();
  }
}

Status KspServer::ValidateRequest(const ServiceRequest& request) const {
  if (request.type == MessageType::kQuery ||
      request.type == MessageType::kExplain) {
    if (request.query.keywords.size() > kMaxQueryKeywords) {
      return Status::InvalidArgument(
          "query carries " + std::to_string(request.query.keywords.size()) +
          " keywords; the server accepts at most " +
          std::to_string(kMaxQueryKeywords));
    }
  }
  if (request.type == MessageType::kSwap && request.directory.empty()) {
    return Status::InvalidArgument("swap request carries no directory");
  }
  return Status::OK();
}

void KspServer::ConnectionLoop(int fd, uint64_t conn_id) {
  std::string payload;
  for (;;) {
    bool clean_eof = false;
    const Status frame_status =
        ReadFrame(fd, options_.max_frame_bytes, &payload, &clean_eof);
    if (clean_eof) break;
    if (!frame_status.ok()) {
      // An oversized announcement is answerable (the payload was never
      // read, so nothing desynchronized yet) but the connection must
      // drop — the unread bytes make further framing impossible.
      if (frame_status.IsInvalidArgument()) {
        server_metrics_.malformed_rejections->Increment();
        std::string out;
        EncodeResponse(ErrorResponse(frame_status), &out);
        WriteFrame(fd, out);
      }
      break;
    }
    server_metrics_.requests->Increment();
    ServiceRequest request;
    Status status = DecodeRequest(payload, &request);
    if (status.ok()) status = ValidateRequest(request);
    if (!status.ok()) {
      // Fast reject before any executor involvement; the stream is still
      // framed, so the connection survives.
      server_metrics_.malformed_rejections->Increment();
      std::string out;
      EncodeResponse(ErrorResponse(status), &out);
      if (!WriteFrame(fd, out).ok()) break;
      continue;
    }

    std::string out;
    if (request.type == MessageType::kQuery ||
        request.type == MessageType::kExplain) {
      PendingRequest pending;
      pending.request = std::move(request);
      uint64_t deadline_ms = pending.request.query.deadline_ms;
      if (deadline_ms == 0) deadline_ms = options_.default_deadline_ms;
      // Armed at admission: the deadline covers queue wait, so a request
      // that ages out while queued never reaches the engine. A wire value
      // past int64 range is clamped; the token treats a deadline the clock
      // cannot represent as none.
      if (deadline_ms != 0) {
        pending.token.set_deadline_after_ms(static_cast<int64_t>(
            std::min<uint64_t>(deadline_ms,
                               std::numeric_limits<int64_t>::max())));
      }
      if (!queue_.TryPush(&pending)) {
        server_metrics_.overload_rejections->Increment();
        EncodeResponse(
            ErrorResponse(
                Status::Unavailable(
                    "admission queue full (" +
                    std::to_string(queue_.capacity()) + " requests)"),
                options_.overload_retry_after_ms),
            &out);
      } else {
        server_metrics_.queue_depth->Set(
            static_cast<double>(queue_.size()));
        pending.Wait();
        out = std::move(pending.response_payload);
      }
    } else {
      ServiceResponse response;
      switch (request.type) {
        case MessageType::kHealth:
          response = HandleHealth();
          break;
        case MessageType::kMetrics:
          response = HandleMetrics();
          break;
        default:
          response = HandleSwap(request);
          break;
      }
      EncodeResponse(response, &out);
    }
    if (!WriteFrame(fd, out).ok()) break;
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(conn_mu_);
  live_connections_.erase(conn_id);
  finished_connections_.push_back(conn_id);
}

void KspServer::WorkerLoop() {
  // Per-worker executor, rebuilt when the serving generation changes. The
  // cached shared_ptr pins the old database until the rebuild, and the
  // per-request snapshot pins it for the query's duration.
  std::shared_ptr<ServingState> cached_state;
  std::unique_ptr<QueryExecutor> executor;
  std::unique_ptr<ShardedExecutor> sharded_executor;
  PendingRequest* request = nullptr;
  while (queue_.Pop(&request)) {
    server_metrics_.queue_depth->Set(static_cast<double>(queue_.size()));
    std::string out;
    if (stopping_.load()) {
      EncodeResponse(
          ErrorResponse(Status::Unavailable("server shutting down"),
                        options_.overload_retry_after_ms),
          &out);
      request->Complete(std::move(out));
      continue;
    }
    const std::shared_ptr<ServingState> state = CurrentState();
    if (state == nullptr) {
      EncodeResponse(
          ErrorResponse(Status::Unavailable("no index generation installed"),
                        options_.overload_retry_after_ms),
          &out);
      request->Complete(std::move(out));
      continue;
    }
    if (state != cached_state) {
      executor.reset();
      sharded_executor.reset();
      if (state->sharded != nullptr) {
        sharded_executor =
            std::make_unique<ShardedExecutor>(state->sharded.get());
        sharded_executor->set_metrics(&registry_);
      } else {
        executor = std::make_unique<QueryExecutor>(state->db.get());
        executor->set_metrics(&registry_);
      }
      cached_state = state;
    }
    HandleQuery(request, executor.get(), sharded_executor.get(), *state);
  }
}

void KspServer::HandleQuery(PendingRequest* request, QueryExecutor* executor,
                            ShardedExecutor* sharded,
                            const ServingState& state) {
  Timer timer;
  timer.Start();
  ServiceResponse response;
  response.generation = state.generation;
  const QueryRequest& qr = request->request.query;

  // A request whose deadline elapsed in the queue fails here, before any
  // engine work; a trip mid-query unwinds cooperatively below.
  Status status = request->token.Check();
  if (status.ok() && request->request.type == MessageType::kExplain &&
      sharded != nullptr) {
    // Explain reports are single-executor introspection; a sharded
    // report would have to stitch per-shard traces and is not built yet.
    status = Status::Unimplemented(
        "explain is not supported on a sharded serving generation");
  }
  if (status.ok()) {
    Result<KspResult> result = KspResult();
    QueryStats stats;
    if (request->request.type == MessageType::kExplain) {
      const KspQuery query =
          state.db->MakeQuery(qr.location, qr.keywords, qr.k);
      executor->set_cancellation(&request->token);
      Result<ExplainReport> report = executor->Explain(query, qr.algorithm);
      executor->set_cancellation(nullptr);
      if (report.ok()) {
        response.body = report->ToJson();
      } else {
        status = report.status();
      }
    } else if (sharded != nullptr) {
      sharded->set_cancellation(&request->token);
      result = sharded->Execute(qr.algorithm, qr.location, qr.keywords,
                                qr.k, &stats);
      sharded->set_cancellation(nullptr);
    } else {
      const KspQuery query =
          state.db->MakeQuery(qr.location, qr.keywords, qr.k);
      executor->set_cancellation(&request->token);
      result = executor->Execute(qr.algorithm, query, &stats);
      executor->set_cancellation(nullptr);
    }
    if (request->request.type != MessageType::kExplain) {
      if (result.ok()) {
        response.entries.reserve(result->entries.size());
        for (const KspResultEntry& e : result->entries) {
          WireResultEntry wire;
          wire.place = e.place;
          wire.looseness = e.looseness;
          wire.spatial_distance = e.spatial_distance;
          wire.score = e.score;
          response.entries.push_back(wire);
        }
        response.total_ms = stats.total_ms;
      } else {
        status = result.status();
      }
    }
  }
  if (!status.ok()) {
    if (status.IsInterruption()) {
      server_metrics_.deadline_exceeded->Increment();
    }
    response = ErrorResponse(status);
    response.generation = state.generation;
  }
  server_metrics_.request_ms->Observe(timer.ElapsedMillis());
  std::string out;
  EncodeResponse(response, &out);
  request->Complete(std::move(out));
}

ServiceResponse KspServer::HandleHealth() {
  ServiceResponse response;
  const std::shared_ptr<ServingState> state = CurrentState();
  Status backend = Status::OK();
  uint64_t index_generation = 0;
  uint32_t num_shards = 0;
  if (state != nullptr) {
    if (state->sharded != nullptr) {
      backend = state->sharded->storage_backend_status();
      index_generation = state->sharded->index_generation();
      num_shards = state->sharded->num_shards();
    } else {
      backend = state->db->storage_backend_status();
      index_generation = state->db->index_generation();
    }
  }
  std::string body = "{\"status\": \"";
  if (state == nullptr) {
    body += "no_database";
  } else {
    body += backend.ok() ? "serving" : "degraded";
  }
  body += "\", \"serving_generation\": ";
  body += std::to_string(state != nullptr ? state->generation : 0);
  body += ", \"index_generation\": ";
  body += std::to_string(index_generation);
  body += ", \"num_shards\": " + std::to_string(num_shards);
  body += ", \"storage_backend\": \"";
  body += JsonEscape(backend.ok() ? "ok" : backend.ToString());
  body += "\", \"queue_depth\": " + std::to_string(queue_.size());
  body += ", \"queue_capacity\": " + std::to_string(queue_.capacity());
  body += ", \"workers\": " + std::to_string(options_.num_workers);
  body += "}";
  response.generation = state != nullptr ? state->generation : 0;
  response.body = std::move(body);
  return response;
}

ServiceResponse KspServer::HandleMetrics() {
  ServiceResponse response;
  response.generation = serving_generation();
  response.body = registry_.Snapshot().ToPrometheusText();
  return response;
}

ServiceResponse KspServer::HandleSwap(const ServiceRequest& request) {
  const Status status = ServeDirectory(request.directory);
  if (!status.ok()) return ErrorResponse(status);
  server_metrics_.swaps->Increment();
  ServiceResponse response;
  response.generation = serving_generation();
  return response;
}

}  // namespace ksp
