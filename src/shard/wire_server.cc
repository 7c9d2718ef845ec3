#include "shard/wire_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>
#include <vector>

#include "common/check.h"

namespace focus::shard {
namespace {

// Poll granularity: the loop wakes at least this often to check read
// deadlines and drain progress.
constexpr int kTickMs = 50;

}  // namespace

WireServer::WireServer(WireServerOptions options, Handler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {}

WireServer::~WireServer() { Stop(); }

bool WireServer::Start(std::string* error) {
  FOCUS_CHECK(!started_.load());
  listen_fd_ = net::ListenUnix(options_.unix_path, options_.backlog, error);
  if (!listen_fd_.valid()) return false;
  if (!net::SetNonBlocking(listen_fd_.get())) {
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
  if (!net::SetNonBlocking(wake_read_.get()) ||
      !net::SetNonBlocking(wake_write_.get())) {
    if (error != nullptr) *error = "cannot set wake pipe non-blocking";
    return false;
  }
  poller_.Add(listen_fd_.get(), /*want_read=*/true, /*want_write=*/false);
  poller_.Add(wake_read_.get(), /*want_read=*/true, /*want_write=*/false);
  started_.store(true);
  loop_ = std::thread([this]() { Loop(); });
  return true;
}

void WireServer::Wake() {
  if (!wake_write_.valid()) return;
  const char byte = 'w';
  [[maybe_unused]] const ssize_t n = ::write(wake_write_.get(), &byte, 1);
}

void WireServer::BeginDrain() {
  draining_.store(true, std::memory_order_relaxed);
  Wake();
}

bool WireServer::WaitDrained(int timeout_ms) {
  common::MutexLock lock(&drained_mutex_);
  return drained_cv_.WaitFor(drained_mutex_,
                             std::chrono::milliseconds(timeout_ms),
                             [this]() { return open_.load() == 0; });
}

void WireServer::Stop() {
  if (!started_.load()) return;
  stopping_.store(true);
  Wake();
  if (loop_.joinable()) loop_.join();
}

WireServerStats WireServer::stats() const {
  WireServerStats stats;
  stats.connections_accepted = accepted_.load(std::memory_order_relaxed);
  stats.frames_handled = frames_.load(std::memory_order_relaxed);
  stats.decode_errors = decode_errors_.load(std::memory_order_relaxed);
  stats.open_connections = open_.load(std::memory_order_relaxed);
  return stats;
}

void WireServer::Loop() {
  std::vector<net::Poller::Event> events;
  bool drain_applied = false;
  while (!stopping_.load(std::memory_order_relaxed)) {
    poller_.Wait(kTickMs, &events);
    const auto now = std::chrono::steady_clock::now();
    for (const net::Poller::Event& event : events) {
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
        FlushWrites(it->second.get());
      }
    }
    CloseExpired(now);
    if (draining_.load(std::memory_order_relaxed)) {
      if (!drain_applied) {
        if (listen_fd_.valid()) {
          poller_.Remove(listen_fd_.get());
          listen_fd_.Reset();
        }
        drain_applied = true;
      }
      // Close connections idle between frames; in-flight ones finish
      // writing their response first.
      std::vector<Connection*> idle;
      for (auto& [fd, conn] : connections_) {
        if (conn->decoder.idle() && conn->out.empty()) {
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

void WireServer::AcceptNew(std::chrono::steady_clock::time_point now) {
  for (;;) {
    net::UniqueFd client(::accept(listen_fd_.get(), nullptr, nullptr));
    if (!client.valid()) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; retry on next readiness
    }
    if (draining_.load(std::memory_order_relaxed)) continue;  // close
    if (open_.load(std::memory_order_relaxed) >= options_.max_connections) {
      // Over the cap: answer one error frame then close. The frame is
      // tiny; a fresh socket's send buffer always takes it.
      ErrorBody body;
      body.message = "connection limit reached";
      const std::string bytes =
          EncodeFrame({MessageType::kError, 0, body.Encode()});
      [[maybe_unused]] const ssize_t n =
          ::send(client.get(), bytes.data(), bytes.size(), MSG_NOSIGNAL);
      continue;
    }
    if (!net::SetNonBlocking(client.get())) continue;
    const int fd = client.get();
    auto conn =
        std::make_unique<Connection>(std::move(client), options_.limits);
    conn->last_activity = now;
    if (!poller_.Add(fd, /*want_read=*/true, /*want_write=*/false)) continue;
    connections_[fd] = std::move(conn);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    open_.fetch_add(1, std::memory_order_relaxed);
  }
}

void WireServer::HandleReadable(Connection* conn,
                                std::chrono::steady_clock::time_point now) {
  char buffer[16384];
  for (;;) {
    const ssize_t n = ::read(conn->fd.get(), buffer, sizeof(buffer));
    if (n > 0) {
      conn->last_activity = now;
      DispatchDecoded(conn,
                      conn->decoder.Consume(std::string_view(buffer, n)));
      if (!FlushWrites(conn)) return;  // closed
      if (conn->close_after_write) {
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
    // EOF. A response still being written survives the peer's half-close.
    if (conn->out.size() > conn->out_offset) {
      conn->close_after_write = true;
      poller_.Update(conn->fd.get(), /*want_read=*/false, /*want_write=*/true);
      conn->want_write = true;
    } else {
      CloseConnection(conn);
    }
    return;
  }
}

void WireServer::DispatchDecoded(Connection* conn,
                                 WireDecoder::Status status) {
  while (status == WireDecoder::Status::kComplete) {
    frames_.fetch_add(1, std::memory_order_relaxed);
    const Frame response = handler_(conn->decoder.frame());
    conn->out += EncodeFrame(response);
    status = conn->decoder.Reset();
  }
  if (status == WireDecoder::Status::kError) {
    decode_errors_.fetch_add(1, std::memory_order_relaxed);
    ErrorBody body;
    body.message = conn->decoder.error();
    conn->out += EncodeFrame({MessageType::kError, 0, body.Encode()});
    conn->close_after_write = true;
  }
}

bool WireServer::FlushWrites(Connection* conn) {
  while (conn->out_offset < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd.get(), conn->out.data() + conn->out_offset,
               conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_offset += static_cast<size_t>(n);
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
  conn->out.clear();
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

void WireServer::CloseExpired(std::chrono::steady_clock::time_point now) {
  if (options_.read_deadline_ms <= 0) return;
  const auto deadline = std::chrono::milliseconds(options_.read_deadline_ms);
  std::vector<Connection*> expired;
  for (auto& [fd, conn] : connections_) {
    // focus-analyze: allow(nondet-iteration) — close order is irrelevant
    if (now - conn->last_activity > deadline) expired.push_back(conn.get());
  }
  for (Connection* conn : expired) CloseConnection(conn);
}

void WireServer::CloseConnection(Connection* conn) {
  const int fd = conn->fd.get();
  poller_.Remove(fd);
  connections_.erase(fd);  // destroys conn; fd closed by UniqueFd
  open_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace focus::shard
