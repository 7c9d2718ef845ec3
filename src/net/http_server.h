#ifndef FOCUS_NET_HTTP_SERVER_H_
#define FOCUS_NET_HTTP_SERVER_H_

#include <cstdint>
#include <string>

#include "net/http_parser.h"
#include "net/router.h"
#include "net/server.h"

namespace focus::net {

struct HttpServerOptions : ServerOptions {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  // 0 = kernel-assigned ephemeral port
  HttpParserLimits limits;
  // Bind with SO_REUSEPORT so multiple server instances can share one
  // port (the sharded front end runs one reactor per instance and lets
  // the kernel spread accepts across them).
  bool reuse_port = false;
};

// HTTP/1.1 over the shared Server loop: a TCP listener, an HttpParser
// per connection (keep-alive and pipelined requests included) whose
// requests the Router answers, and a 503 for connections over the cap.
// Malformed requests get the parser's 4xx/5xx status and a close; while
// draining, each request is answered with Connection: close.
class HttpServer : public Server {
 public:
  HttpServer(const HttpServerOptions& options, Router router);
};

}  // namespace focus::net

#endif  // FOCUS_NET_HTTP_SERVER_H_
