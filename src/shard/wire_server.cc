#include "shard/wire_server.h"

#include <memory>
#include <utility>

namespace focus::shard {
namespace {

class WireCodec : public net::Codec {
 public:
  WireCodec(const WireLimits& limits,
            std::shared_ptr<const WireServer::Handler> handler)
      : decoder_(limits), handler_(std::move(handler)) {}

  void Feed(std::string_view bytes) override {
    status_ = decoder_.Consume(bytes);
  }

  Input next() const override {
    switch (status_) {
      case WireDecoder::Status::kNeedMore:
        return Input::kNeedMore;
      case WireDecoder::Status::kComplete:
        return Input::kRequest;
      case WireDecoder::Status::kError:
        break;
    }
    return Input::kMalformed;
  }

  bool Answer(bool /*draining*/, std::deque<std::string>* out) override {
    if (status_ == WireDecoder::Status::kError) {
      out->push_back(EncodeFrame(ErrorFrame(0, decoder_.error())));
      return false;
    }
    out->push_back(EncodeFrame((*handler_)(decoder_.frame())));
    status_ = decoder_.Reset();
    return true;
  }

  bool idle() const override { return decoder_.idle(); }

 private:
  WireDecoder decoder_;
  const std::shared_ptr<const WireServer::Handler> handler_;
  WireDecoder::Status status_ = WireDecoder::Status::kNeedMore;
};

}  // namespace

WireServer::WireServer(const WireServerOptions& options, Handler handler)
    : net::Server(
          options,
          {[path = options.unix_path](int backlog, uint16_t* /*bound_port*/,
                                      std::string* error) {
             return net::ListenUnix(path, backlog, error);
           },
           EncodeFrame(ErrorFrame(0, "connection limit reached")),
           [limits = options.limits,
            shared = std::make_shared<const Handler>(std::move(handler))]() {
             return std::make_unique<WireCodec>(limits, shared);
           }}) {}

}  // namespace focus::shard
