#include "shard/remote.h"

#include <utility>

namespace ksp {

InProcessShardChannel::InProcessShardChannel(const KspDatabase* db)
    : db_(db), executor_(db) {}

Status InProcessShardChannel::Query(const ShardQueryRequest& request,
                                    const std::atomic<double>* live_theta,
                                    ShardQueryResponse* response) {
  *response = ShardQueryResponse();
  response->generation = db_->index_generation();

  // Keyword strings resolve against THIS shard's generation, mirroring
  // the serving protocol.
  const KspQuery query =
      db_->MakeQuery(request.location, request.keywords, request.k);
  executor_.set_shared_theta(live_theta);
  QueryStats stats;
  Result<KspResult> result =
      executor_.Execute(request.algorithm, query, &stats);
  executor_.set_shared_theta(nullptr);
  response->stats = stats;
  if (!result.ok()) {
    // An application-level failure is part of the response, not a
    // transport error.
    response->code = result.status().code();
    response->message = std::string(result.status().message());
    return Status::OK();
  }
  response->result = std::move(*result);
  return Status::OK();
}

std::vector<std::unique_ptr<ShardChannel>> MakeInProcessChannels(
    const ShardedKspDatabase& db) {
  std::vector<std::unique_ptr<ShardChannel>> channels(db.num_shards());
  for (uint32_t i = 0; i < db.num_shards(); ++i) {
    if (db.shard(i) != nullptr) {
      channels[i] = std::make_unique<InProcessShardChannel>(db.shard(i));
    }
  }
  return channels;
}

}  // namespace ksp
