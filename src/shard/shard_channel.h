#ifndef FOCUS_SHARD_SHARD_CHANNEL_H_
#define FOCUS_SHARD_SHARD_CHANNEL_H_

#include <string>

#include "shard/wire.h"

namespace focus::shard {

// Transport to one shard. Two implementations: ShardClient speaks the
// wire protocol over a Unix socket to a forked worker process, and
// LocalShardChannel calls a ShardWorker in the same process (focus_served
// --shards 0, the law tests, the in-process bench). Both carry the
// identical encoded frames, so every deployment runs the same codecs.
class ShardChannel {
 public:
  virtual ~ShardChannel() = default;

  // False on transport failure ("shard down"); `error` explains. A kError
  // frame from the worker is surfaced the same way.
  virtual bool Call(MessageType type, const std::string& payload,
                    Frame* response, std::string* error) = 0;
};

}  // namespace focus::shard

#endif  // FOCUS_SHARD_SHARD_CHANNEL_H_
