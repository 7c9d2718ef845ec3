#ifndef FOCUS_SHARD_SHARD_ROUTER_H_
#define FOCUS_SHARD_SHARD_ROUTER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/api_util.h"
#include "shard/hash_ring.h"
#include "shard/shard_channel.h"
#include "shard/shard_worker.h"
#include "shard/wire.h"

namespace focus::shard {

// In-process ShardChannel: dispatches directly into a ShardWorker (the
// encode/decode still happens in the worker's body codecs, so the same
// bytes-level contract is exercised). CallAsync hands the frame to
// ShardWorker::HandleFrameAsync, which admits a snapshot on the worker's
// ingest threads, so the calling reactor never waits for one.
class LocalShardChannel : public ShardChannel {
 public:
  explicit LocalShardChannel(ShardWorker* worker) : worker_(worker) {}

  bool Call(MessageType type, const std::string& payload, Frame* response,
            std::string* error) override;
  void CallAsync(MessageType type, std::string payload, Done done) override;

 private:
  ShardWorker* const worker_;
};

// Consistent-hash stream->shard routing plus the scatter-gather fan-out
// for cross-shard operations. Single-shard operations (ingest, per-stream
// deviation) go to the owning shard only; /v1/compare falls back to a
// two-phase exchange when the two snapshots live on different shards; the
// cross-stream summary merges every shard's partial aggregates through
// serve::AggregateSummary, the same fold a single MonitorService's streams
// go through — which is why sharded answers are bit-identical (tests/laws
// pins this).
//
// Any transport failure surfaces as kShardDown: the front end answers 503
// and the daemon begins its drain (docs/SHARDING.md).
class ShardRouter {
 public:
  enum class Status {
    kOk,
    kNotFound,    // unknown stream / hash on the owning shard(s)
    kShardDown,   // transport failure -> 503
  };

  // `shards` must outlive the router; one channel per shard, index order.
  explicit ShardRouter(std::vector<ShardChannel*> shards,
                       int vnodes_per_shard = 64);

  int num_shards() const { return ring_.num_shards(); }
  int ShardFor(const std::string& stream) const {
    return ring_.ShardFor(stream);
  }

  // Ingest: routes to the owning shard. Encodes the payload from
  // `snapshot_text` before it returns, then `done` gets the outcome on
  // whichever thread the shard's channel finishes on (the in-process
  // worker's ingest threads at --shards 0; this one, blocking, through a
  // ShardClient). kOk means the shard answered (result.status carries the
  // HTTP-style verdict, 202/400/429/503).
  using SubmitDone = std::function<void(
      Status status, const SubmitResultBody& result, const std::string& error)>;
  void SubmitAsync(const std::string& stream, std::string_view source,
                   std::string_view snapshot_text, SubmitDone done);

  // SubmitAsync, waiting for its outcome. Never call it from a thread the
  // channel may finish on (a worker's ingest thread).
  Status Submit(const std::string& stream, std::string_view source,
                std::string_view snapshot_text, SubmitResultBody* result,
                std::string* error);

  // Per-stream deviation from the owning shard.
  Status QueryDeviation(const std::string& stream, serve::FgChoice fg,
                        DeviationResultBody* result, std::string* error);

  // Compare by content hash. kNotFound fills `missing` with the hashes no
  // shard holds, or with the one its owner evicted during a cross-shard
  // compare.
  Status Compare(uint64_t left_hash, uint64_t right_hash, serve::FgChoice fg,
                 double* deviation, std::vector<uint64_t>* missing,
                 std::string* error);

  // Cross-stream aggregate over every shard: merged per-stream entries
  // (sorted by name) + the canonical fold.
  Status Summary(serve::FgChoice fg, std::vector<serve::SummaryEntry>* entries,
                 serve::SummaryResult* result, std::string* error);

  // Pings every shard; false (with `error`) when any is unreachable.
  bool PingAll(std::string* error);

 private:
  // Two-phase cross-shard compare: fetch Γ(M)+n from each owner, form the
  // GCR, extend both models remotely, aggregate locally. kNotFound adds
  // the hash whose owner no longer holds it to `missing`.
  Status CrossShardCompare(int left_shard, uint64_t left_hash,
                           int right_shard, uint64_t right_hash,
                           serve::FgChoice fg, double* deviation,
                           std::vector<uint64_t>* missing,
                           std::string* error);

  const std::vector<ShardChannel*> shards_;
  const HashRing ring_;
};

}  // namespace focus::shard

#endif  // FOCUS_SHARD_SHARD_ROUTER_H_
