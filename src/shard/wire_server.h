#ifndef FOCUS_SHARD_WIRE_SERVER_H_
#define FOCUS_SHARD_WIRE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/poller.h"
#include "net/socket_util.h"
#include "shard/wire.h"

namespace focus::shard {

struct WireServerOptions {
  // Unix-domain socket path the worker listens on.
  std::string unix_path;
  int backlog = 128;
  int max_connections = 64;
  // A connection silent this long (mid-frame or between frames) is closed.
  int read_deadline_ms = 30'000;
  WireLimits limits;
};

struct WireServerStats {
  int64_t connections_accepted = 0;
  int64_t frames_handled = 0;
  int64_t decode_errors = 0;
  int64_t open_connections = 0;
};

// Single-threaded frame server over a Unix-domain socket: the shard-side
// twin of net::HttpServer. One event-loop thread multiplexes the listener
// and every connection through a level-triggered net::Poller; the handler
// runs inline on that thread and returns the response frame for each
// request frame. A decode error answers with one kError frame and closes
// the connection (the decoder's errors are terminal, like HttpParser's).
//
// Lifecycle mirrors HttpServer: Start() binds and spawns the loop,
// BeginDrain() stops accepting and closes idle connections, WaitDrained()
// blocks until every connection is gone, Stop() joins.
class WireServer {
 public:
  using Handler = std::function<Frame(const Frame&)>;

  WireServer(WireServerOptions options, Handler handler);
  ~WireServer();  // Stop()

  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  bool Start(std::string* error = nullptr);
  void BeginDrain();
  bool WaitDrained(int timeout_ms) EXCLUDES(drained_mutex_);
  void Stop();

  bool draining() const { return draining_.load(std::memory_order_relaxed); }
  WireServerStats stats() const;

 private:
  struct Connection {
    net::UniqueFd fd;
    WireDecoder decoder;
    std::string out;  // serialized response frames not yet written
    size_t out_offset = 0;
    bool close_after_write = false;
    bool want_write = false;
    std::chrono::steady_clock::time_point last_activity;

    Connection(net::UniqueFd fd_in, const WireLimits& limits)
        : fd(std::move(fd_in)), decoder(limits) {}
  };

  void Loop();
  void AcceptNew(std::chrono::steady_clock::time_point now);
  void HandleReadable(Connection* conn,
                      std::chrono::steady_clock::time_point now);
  void DispatchDecoded(Connection* conn, WireDecoder::Status status);
  bool FlushWrites(Connection* conn);
  void CloseConnection(Connection* conn);
  void CloseExpired(std::chrono::steady_clock::time_point now);
  void Wake();

  const WireServerOptions options_;
  const Handler handler_;

  net::UniqueFd listen_fd_;
  net::UniqueFd wake_read_, wake_write_;  // self-pipe: Stop/BeginDrain -> loop

  net::Poller poller_;
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;

  std::thread loop_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};

  // drained_cv_ broadcasts under drained_mutex_ when the connection table
  // empties while draining; the predicate reads the atomic open_ counter.
  mutable common::Mutex drained_mutex_;
  common::CondVar drained_cv_;

  std::atomic<int64_t> accepted_{0}, frames_{0}, decode_errors_{0};
  std::atomic<int64_t> open_{0};
};

}  // namespace focus::shard

#endif  // FOCUS_SHARD_WIRE_SERVER_H_
