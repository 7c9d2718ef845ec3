#include "net/http_server.h"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"

namespace focus::net {
namespace {

// Poll granularity: the loop wakes at least this often to check read
// deadlines and drain progress.
constexpr int kTickMs = 50;

// Buffers gathered into one sendmsg call: 8 pipelined header+body pairs
// per syscall, far below any kernel IOV_MAX. Leftovers go next round.
constexpr int kMaxResponseIov = 16;

}  // namespace

HttpServer::HttpServer(HttpServerOptions options, Router router)
    : options_(std::move(options)),
      router_(std::move(router)),
      poller_(options_.force_poll) {}

HttpServer::~HttpServer() { Stop(); }

bool HttpServer::Start(std::string* error) {
  FOCUS_CHECK(!started_.load());
  listen_fd_ = ListenTcp(options_.bind_address, options_.port,
                         options_.backlog, &port_, error,
                         options_.reuse_port);
  if (!listen_fd_.valid()) return false;
  if (!SetNonBlocking(listen_fd_.get())) {
    if (error != nullptr) *error = "cannot set listener non-blocking";
    return false;
  }
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    if (error != nullptr) *error = "cannot create wake pipe";
    return false;
  }
  wake_read_.Reset(pipe_fds[0]);
  wake_write_.Reset(pipe_fds[1]);
  // A blocking wake pipe would hang the event loop when it drains the
  // self-pipe, so failing to configure it is a startup failure.
  if (!SetNonBlocking(wake_read_.get()) ||
      !SetNonBlocking(wake_write_.get())) {
    if (error != nullptr) *error = "cannot set wake pipe non-blocking";
    return false;
  }
  poller_.Add(listen_fd_.get(), /*want_read=*/true, /*want_write=*/false);
  poller_.Add(wake_read_.get(), /*want_read=*/true, /*want_write=*/false);
  started_.store(true);
  loop_ = std::thread([this]() { Loop(); });
  return true;
}

void HttpServer::Wake() {
  if (!wake_write_.valid()) return;
  const char byte = 'w';
  [[maybe_unused]] const ssize_t n = ::write(wake_write_.get(), &byte, 1);
}

void HttpServer::BeginDrain() {
  draining_.store(true, std::memory_order_relaxed);
  Wake();
}

bool HttpServer::WaitDrained(int timeout_ms) {
  common::MutexLock lock(&drained_mutex_);
  return drained_cv_.WaitFor(drained_mutex_,
                             std::chrono::milliseconds(timeout_ms),
                             [this]() { return open_.load() == 0; });
}

void HttpServer::Stop() {
  if (!started_.load()) return;
  stopping_.store(true);
  Wake();
  if (loop_.joinable()) loop_.join();
}

HttpServerStats HttpServer::stats() const {
  HttpServerStats stats;
  stats.connections_accepted = accepted_.load(std::memory_order_relaxed);
  stats.connections_refused = refused_.load(std::memory_order_relaxed);
  stats.requests_handled = requests_.load(std::memory_order_relaxed);
  stats.parse_errors = parse_errors_.load(std::memory_order_relaxed);
  stats.deadline_closes = deadline_closes_.load(std::memory_order_acquire);
  stats.open_connections = open_.load(std::memory_order_relaxed);
  return stats;
}

void HttpServer::Loop() {
  std::vector<Poller::Event> events;
  bool drain_applied = false;
  while (!stopping_.load(std::memory_order_relaxed)) {
    poller_.Wait(kTickMs, &events);
    const auto now = std::chrono::steady_clock::now();
    for (const Poller::Event& event : events) {
      if (event.fd == wake_read_.get()) {
        char sink[64];
        while (::read(wake_read_.get(), sink, sizeof(sink)) > 0) {}
        continue;
      }
      if (event.fd == listen_fd_.get()) {
        if (event.readable) AcceptNew(now);
        continue;
      }
      // The connection may have been closed by an earlier event this
      // round; look it up fresh.
      auto it = connections_.find(event.fd);
      if (it == connections_.end()) continue;
      Connection* conn = it->second.get();
      if (event.error) {
        CloseConnection(conn);
        continue;
      }
      if (event.readable) HandleReadable(conn, now);
      it = connections_.find(event.fd);
      if (it != connections_.end() && event.writable) {
        HandleWritable(it->second.get());
      }
    }
    CloseExpired(now);
    if (draining_.load(std::memory_order_relaxed)) {
      if (!drain_applied) {
        // Stop accepting: deregister and close the listener so the port
        // is released and new connects are refused by the kernel.
        if (listen_fd_.valid()) {
          poller_.Remove(listen_fd_.get());
          listen_fd_.Reset();
        }
        drain_applied = true;
      }
      // Close connections sitting idle between requests; in-flight ones
      // finish their response first (QueueResponse forces close-after).
      std::vector<Connection*> idle;
      for (auto& [fd, conn] : connections_) {
        if (conn->parser.idle() && conn->out.empty()) {
          // focus-analyze: allow(nondet-iteration) — close order is irrelevant
          idle.push_back(conn.get());
        }
      }
      for (Connection* conn : idle) CloseConnection(conn);
      if (connections_.empty()) {
        common::MutexLock lock(&drained_mutex_);
        drained_cv_.NotifyAll();
      }
    }
  }
  // Shutdown: drop everything still open.
  std::vector<Connection*> remaining;
  remaining.reserve(connections_.size());
  // focus-analyze: allow(nondet-iteration) — close order is irrelevant
  for (auto& [fd, conn] : connections_) remaining.push_back(conn.get());
  for (Connection* conn : remaining) CloseConnection(conn);
  if (listen_fd_.valid()) {
    poller_.Remove(listen_fd_.get());
    listen_fd_.Reset();
  }
}

void HttpServer::AcceptNew(std::chrono::steady_clock::time_point now) {
  for (;;) {
    UniqueFd client(::accept(listen_fd_.get(), nullptr, nullptr));
    if (!client.valid()) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; retry on next readiness
    }
    if (draining_.load(std::memory_order_relaxed)) continue;  // close
    if (open_.load(std::memory_order_relaxed) >= options_.max_connections) {
      // Over the cap: answer 503 then close. The response is tiny; a
      // fresh socket's send buffer always takes it without blocking. The
      // count goes up first, so a client that has read the 503 sees it.
      refused_.fetch_add(1, std::memory_order_relaxed);
      const std::string bytes = SerializeResponse(
          ErrorResponse(503, "connection limit reached"), /*keep_alive=*/false);
      [[maybe_unused]] const ssize_t n =
          ::send(client.get(), bytes.data(), bytes.size(), MSG_NOSIGNAL);
      continue;
    }
    if (!SetNonBlocking(client.get())) continue;
    const int fd = client.get();
    auto conn = std::make_unique<Connection>(std::move(client),
                                             options_.limits);
    conn->last_activity = now;
    if (!poller_.Add(fd, /*want_read=*/true, /*want_write=*/false)) continue;
    connections_[fd] = std::move(conn);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    open_.fetch_add(1, std::memory_order_relaxed);
  }
}

void HttpServer::HandleReadable(Connection* conn,
                                std::chrono::steady_clock::time_point now) {
  char buffer[16384];
  for (;;) {
    const ssize_t n = ::read(conn->fd.get(), buffer, sizeof(buffer));
    if (n > 0) {
      conn->last_activity = now;
      DispatchParsed(conn,
                     conn->parser.Consume(std::string_view(buffer, n)));
      if (!FlushWrites(conn)) return;  // closed
      if (conn->close_after_write) {
        // Error or Connection: close already queued; stop reading.
        poller_.Update(conn->fd.get(), /*want_read=*/false, conn->want_write);
        return;
      }
      continue;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      CloseConnection(conn);
      return;
    }
    // EOF. A response still being written survives the peer's half-close;
    // anything else (idle or mid-request) is done. A non-empty write
    // queue always has unwritten bytes (FlushWrites pops drained fronts).
    if (!conn->out.empty()) {
      conn->close_after_write = true;
      poller_.Update(conn->fd.get(), /*want_read=*/false, /*want_write=*/true);
      conn->want_write = true;
    } else {
      CloseConnection(conn);
    }
    return;
  }
}

void HttpServer::DispatchParsed(Connection* conn, HttpParser::Status status) {
  while (status == HttpParser::Status::kComplete) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    const HttpRequest& request = conn->parser.request();
    // While draining, finish this request but refuse to keep the
    // connection: clients re-connect elsewhere.
    const bool keep_alive =
        request.keep_alive && !draining_.load(std::memory_order_relaxed);
    QueueResponse(conn, router_.Dispatch(request), keep_alive);
    if (!keep_alive) {
      conn->close_after_write = true;
      return;
    }
    status = conn->parser.Reset();
  }
  if (status == HttpParser::Status::kError) {
    parse_errors_.fetch_add(1, std::memory_order_relaxed);
    QueueResponse(conn,
                  ErrorResponse(conn->parser.error_status(),
                                conn->parser.error()),
                  /*keep_alive=*/false);
    conn->close_after_write = true;
  }
}

void HttpServer::QueueResponse(Connection* conn, HttpResponse response,
                               bool keep_alive) {
  conn->out.push_back(SerializeResponseHeader(response, keep_alive));
  if (!response.body.empty()) conn->out.push_back(std::move(response.body));
}

bool HttpServer::FlushWrites(Connection* conn) {
  while (!conn->out.empty()) {
    // Gather the queued buffers — header blocks and bodies interleaved —
    // into one iovec batch; sendmsg with MSG_NOSIGNAL is writev plus the
    // SIGPIPE suppression ::send gave the old single-buffer path.
    iovec iov[kMaxResponseIov];
    int iov_count = 0;
    size_t skip = conn->out_offset;
    for (const std::string& buffer : conn->out) {
      if (iov_count == kMaxResponseIov) break;
      iov[iov_count].iov_base = const_cast<char*>(buffer.data()) + skip;
      iov[iov_count].iov_len = buffer.size() - skip;
      ++iov_count;
      skip = 0;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iov_count;
    const ssize_t n = ::sendmsg(conn->fd.get(), &msg, MSG_NOSIGNAL);
    if (n > 0) {
      // A short write can end anywhere: pop fully-written fronts, advance
      // the offset into a partially-written one.
      size_t written = static_cast<size_t>(n);
      while (written > 0) {
        const size_t front_left = conn->out.front().size() - conn->out_offset;
        if (written < front_left) {
          conn->out_offset += written;
          break;
        }
        written -= front_left;
        conn->out.pop_front();
        conn->out_offset = 0;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_write) {
        conn->want_write = true;
        poller_.Update(conn->fd.get(), !conn->close_after_write, true);
      }
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(conn);  // peer reset mid-response
    return false;
  }
  conn->out_offset = 0;
  if (conn->close_after_write) {
    CloseConnection(conn);
    return false;
  }
  if (conn->want_write) {
    conn->want_write = false;
    poller_.Update(conn->fd.get(), /*want_read=*/true, /*want_write=*/false);
  }
  return true;
}

void HttpServer::HandleWritable(Connection* conn) { FlushWrites(conn); }

void HttpServer::CloseExpired(std::chrono::steady_clock::time_point now) {
  if (options_.read_deadline_ms <= 0) return;
  const auto deadline = std::chrono::milliseconds(options_.read_deadline_ms);
  std::vector<Connection*> expired;
  for (auto& [fd, conn] : connections_) {
    // focus-analyze: allow(nondet-iteration) — close order is irrelevant
    if (now - conn->last_activity > deadline) expired.push_back(conn.get());
  }
  for (Connection* conn : expired) {
    // Count after the close, so a reader that sees the count also sees
    // the connection gone from open_connections.
    CloseConnection(conn);
    deadline_closes_.fetch_add(1, std::memory_order_release);
  }
}

void HttpServer::CloseConnection(Connection* conn) {
  const int fd = conn->fd.get();
  poller_.Remove(fd);
  connections_.erase(fd);  // destroys conn; fd closed by UniqueFd
  open_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace focus::net
