#ifndef FOCUS_SHARD_SHARD_CHANNEL_H_
#define FOCUS_SHARD_SHARD_CHANNEL_H_

#include <functional>
#include <string>
#include <utility>

#include "shard/wire.h"

namespace focus::shard {

// Transport to one shard. Two implementations: ShardClient speaks the
// wire protocol over a Unix socket to a forked worker process, and
// LocalShardChannel calls a ShardWorker in the same process (focus_served
// --shards 0, the law tests, the in-process bench). Both carry the
// identical encoded frames, so every deployment runs the same codecs.
class ShardChannel {
 public:
  // What one call came to: Call's return value, its response and its
  // error.
  using Done = std::function<void(bool ok, Frame response, std::string error)>;

  virtual ~ShardChannel() = default;

  // False on transport failure ("shard down"); `error` explains. A kError
  // frame from the worker is surfaced the same way.
  virtual bool Call(MessageType type, const std::string& payload,
                    Frame* response, std::string* error) = 0;

  // Call without waiting for the shard: `done` runs once with the outcome,
  // on whichever thread the shard finishes on. By default that is this
  // one, before CallAsync returns (ShardClient blocks in Call).
  virtual void CallAsync(MessageType type, std::string payload, Done done) {
    Frame response;
    std::string error;
    const bool ok = Call(type, payload, &response, &error);
    done(ok, std::move(response), std::move(error));
  }
};

}  // namespace focus::shard

#endif  // FOCUS_SHARD_SHARD_CHANNEL_H_
