#ifndef FOCUS_SHARD_WIRE_SERVER_H_
#define FOCUS_SHARD_WIRE_SERVER_H_

#include <functional>
#include <string>

#include "net/server.h"
#include "shard/wire.h"

namespace focus::shard {

struct WireServerOptions : net::ServerOptions {
  // Unix-domain socket path the worker listens on.
  std::string unix_path;
  WireLimits limits;
};

// The shard wire protocol over the shared net::Server loop: a Unix-socket
// listener, a WireDecoder per connection whose frames the handler
// answers, and a kError frame for connections over the cap. A decode
// error (oversized payload, unknown type) answers with one kError frame
// and closes the connection.
class WireServer : public net::Server {
 public:
  using Handler = std::function<Frame(const Frame&)>;

  WireServer(const WireServerOptions& options, Handler handler);
};

}  // namespace focus::shard

#endif  // FOCUS_SHARD_WIRE_SERVER_H_
