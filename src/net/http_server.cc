#include "net/http_server.h"

#include <memory>
#include <utility>

namespace focus::net {
namespace {

class HttpCodec : public Codec {
 public:
  HttpCodec(const HttpParserLimits& limits,
            std::shared_ptr<const Router> router)
      : parser_(limits), router_(std::move(router)) {}

  void Feed(std::string_view bytes) override {
    status_ = parser_.Consume(bytes);
  }

  Input next() const override {
    switch (status_) {
      case HttpParser::Status::kNeedMore:
        return Input::kNeedMore;
      case HttpParser::Status::kComplete:
        return Input::kRequest;
      case HttpParser::Status::kError:
        break;
    }
    return Input::kMalformed;
  }

  bool Answer(bool draining, std::deque<std::string>* out) override {
    if (status_ == HttpParser::Status::kError) {
      Queue(ErrorResponse(parser_.error_status(), parser_.error()),
            /*keep_alive=*/false, out);
      return false;
    }
    const HttpRequest& request = parser_.request();
    // While draining, finish this request but refuse to keep the
    // connection: clients re-connect elsewhere.
    const bool keep_alive = request.keep_alive && !draining;
    Queue(router_->Dispatch(request), keep_alive, out);
    if (keep_alive) status_ = parser_.Reset();
    return keep_alive;
  }

  bool idle() const override { return parser_.idle(); }

 private:
  // The header block and the body go out as separate buffers, so the
  // body moves into the queue instead of being copied.
  static void Queue(HttpResponse response, bool keep_alive,
                    std::deque<std::string>* out) {
    out->push_back(SerializeResponseHeader(response, keep_alive));
    if (!response.body.empty()) out->push_back(std::move(response.body));
  }

  HttpParser parser_;
  const std::shared_ptr<const Router> router_;
  HttpParser::Status status_ = HttpParser::Status::kNeedMore;
};

}  // namespace

HttpServer::HttpServer(const HttpServerOptions& options, Router router)
    : Server(options,
             {[options](int backlog, uint16_t* bound_port,
                        std::string* error) {
                return ListenTcp(options.bind_address, options.port, backlog,
                                 bound_port, error, options.reuse_port);
              },
              SerializeResponse(ErrorResponse(503, "connection limit reached"),
                                /*keep_alive=*/false),
              [limits = options.limits,
               shared = std::make_shared<const Router>(std::move(router))]() {
                return std::make_unique<HttpCodec>(limits, shared);
              }}) {}

}  // namespace focus::net
