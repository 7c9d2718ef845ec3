#ifndef FOCUS_NET_SERVER_H_
#define FOCUS_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/poller.h"
#include "net/socket_util.h"

namespace focus::net {

// The fields every server shares, whatever protocol it speaks.
struct ServerOptions {
  int backlog = 128;
  // Beyond this many open connections, new ones are accepted only to send
  // the protocol's refusal and close — the kernel backlog never silently
  // grows.
  int max_connections = 256;
  // A connection that has for this long neither sent a byte nor taken one
  // of its replies (mid-request or between requests) is closed.
  int read_deadline_ms = 10'000;
  // Use the poll(2) engine even where epoll exists (tests).
  bool force_poll = false;
};

// Point-in-time counters, safe to read from any thread.
struct ServerStats {
  int64_t connections_accepted = 0;
  int64_t connections_refused = 0;   // over the connection cap
  int64_t requests_handled = 0;      // requests (or frames) answered
  int64_t parse_errors = 0;          // malformed input answered, then closed
  int64_t deadline_closes = 0;       // read-deadline expirations
  int64_t open_connections = 0;
};

class ReplyMailbox;  // server.cc: completed replies on their way to the loop

// The reply to one request, finished after Codec::Answer returned, on any
// thread. It names its connection by an id the server never reuses, not by
// the fd, which the kernel hands to the next connection: a reply whose
// connection has closed meanwhile, or whose server has stopped, is dropped.
class DeferredReply {
 public:
  // Queues `buffers` (each non-empty) as the awaited reply and wakes the
  // loop; with `close`, the connection ends once they are written. Call at
  // most once per awaited reply.
  void Complete(std::deque<std::string> buffers, bool close) const;

 private:
  friend class Server;
  DeferredReply(std::shared_ptr<ReplyMailbox> mailbox, int fd, uint64_t id)
      : mailbox_(std::move(mailbox)), fd_(fd), id_(id) {}

  std::shared_ptr<ReplyMailbox> mailbox_;
  int fd_;
  uint64_t id_;
};

// One connection's side of a protocol: an incremental decoder plus the
// handler that answers each decoded request.
class Codec {
 public:
  // What the bytes fed so far hold next.
  enum class Input {
    kNeedMore,   // no complete request
    kRequest,    // a complete request
    kMalformed,  // input the protocol rejects; the connection ends
  };

  // What the connection does once Answer returns.
  enum class After {
    kRead,   // the reply is in `out`; go on to the next request
    kClose,  // the reply is in `out`; close once it is written
    kAwait,  // a copy of `later` completes the reply
  };

  Codec() = default;
  Codec(const Codec&) = delete;
  Codec& operator=(const Codec&) = delete;
  virtual ~Codec() = default;

  // Appends bytes read from the peer. Called only while next() is
  // kNeedMore.
  virtual void Feed(std::string_view bytes) = 0;

  virtual Input next() const = 0;

  // Answers next() — a request, or malformed input with an error reply.
  // The reply goes into `out` as non-empty buffers, or, with kAwait,
  // through `later` from any thread; until it arrives the connection is
  // neither read nor answered, so replies keep request order. `draining`
  // is the server's drain state.
  virtual After Answer(bool draining, const DeferredReply& later,
                       std::deque<std::string>* out) = 0;

  // The drain rule: true when no byte of a next request has arrived, so
  // a draining server may close the connection.
  virtual bool idle() const = 0;
};

// What a server speaks: its listener, its refusal, and a codec per
// connection.
struct Protocol {
  // Binds the listening socket; a TCP listener stores its port in
  // `bound_port`.
  std::function<UniqueFd(int backlog, uint16_t* bound_port,
                         std::string* error)>
      listen;
  // Sent to a connection accepted over the cap, just before it is closed.
  std::string refusal;
  std::function<std::unique_ptr<Codec>()> new_codec;
};

// Single-threaded server: one event-loop thread multiplexes the listener
// and every connection through a level-triggered Poller (epoll on Linux,
// poll elsewhere). The protocol's handlers run inline on that thread, so
// they must be fast, or defer their reply (Codec::After::kAwait) and
// finish it on their own executor: the loop picks a completed
// DeferredReply up through its self-pipe and serves other connections
// meanwhile. Accepts, reads and writes are non-blocking. Replies queue per
// connection as buffers that go out in sendmsg iovec batches, so a burst
// of pipelined replies costs one syscall and no concatenation.
//
// Back-pressure: a connection is answered one batch of replies at a time,
// and not read while replies it has not taken are queued, or while it
// awaits a deferred reply, so a client that pipelines without reading
// holds a bounded amount of server memory. A connection awaiting a
// deferred reply is closed neither by the read deadline nor by the drain.
//
// Malformed input is answered with the protocol's error reply and a
// closed connection — never a crash or a hang.
class Server {
 public:
  Server(const ServerOptions& options, Protocol protocol);
  ~Server();  // Stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, and starts the loop thread. False + `error` on
  // failure.
  bool Start(std::string* error = nullptr);

  // The bound TCP port (after Start); useful with port 0.
  uint16_t port() const { return port_; }

  // Stops accepting and closes connections that are idle between
  // requests. Safe from any thread; idempotent.
  void BeginDrain();

  // Blocks until every connection is gone or `timeout_ms` elapsed.
  // Returns true when fully drained. Call BeginDrain() first.
  bool WaitDrained(int timeout_ms) EXCLUDES(drained_mutex_);

  // BeginDrain + close everything + join the loop thread. Idempotent.
  void Stop();

  ServerStats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Connection {
    UniqueFd fd;
    uint64_t id = 0;  // never reused, unlike the fd
    std::unique_ptr<Codec> codec;
    // Replies not yet written. Invariant: buffers are non-empty and the
    // front one is never fully written (FlushWrites pops exhausted
    // fronts), so a non-empty queue means bytes are pending.
    std::deque<std::string> out;
    size_t out_offset = 0;  // bytes of out.front() already written
    bool close_after_write = false;
    bool awaiting = false;  // a DeferredReply is due
    // Registered interest: write while replies are queued, else read
    // unless a deferred reply is due.
    bool want_read = true;
    bool want_write = false;
    Clock::time_point last_activity;
  };

  void Loop();
  void AcceptNew(Clock::time_point now);
  void HandleReadable(Connection* conn, Clock::time_point now);
  // Answers buffered requests and writes their replies until the codec
  // needs more bytes or the socket is full, then registers the interest
  // that state calls for. Returns false when the connection was closed.
  bool Pump(Connection* conn, Clock::time_point now);
  // Writes queued replies until the queue is empty or the socket is
  // full. Closes the connection, and returns false, on a write error or
  // once a close_after_write queue is written.
  bool FlushWrites(Connection* conn, Clock::time_point now);
  // Hands each completed DeferredReply to its connection, if that is
  // still open, and pumps it.
  void DeliverReplies(Clock::time_point now);
  void CloseConnection(Connection* conn);
  void CloseExpired(Clock::time_point now);
  void Wake();

  const ServerOptions options_;
  const Protocol protocol_;

  UniqueFd listen_fd_;
  UniqueFd wake_read_, wake_write_;  // self-pipe: Stop/BeginDrain -> loop
  uint16_t port_ = 0;

  Poller poller_;
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  uint64_t next_connection_id_ = 1;
  // Shared with every DeferredReply handed out, which may outlive the
  // server.
  const std::shared_ptr<ReplyMailbox> mailbox_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};

  // drained_cv_ broadcasts under drained_mutex_ when the connection table
  // empties while draining; the predicate reads the atomic open_ counter.
  mutable common::Mutex drained_mutex_;
  common::CondVar drained_cv_;

  // Stats counters (relaxed atomics; read via stats()).
  std::atomic<int64_t> accepted_{0}, refused_{0}, requests_{0},
      parse_errors_{0}, deadline_closes_{0};
  std::atomic<int64_t> open_{0};

  std::thread loop_;  // last: it uses every member above
};

}  // namespace focus::net

#endif  // FOCUS_NET_SERVER_H_
