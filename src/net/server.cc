#include "net/server.h"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace focus::net {
namespace {

// Poll granularity: the loop wakes at least this often to check read
// deadlines and drain progress.
constexpr int kTickMs = 50;

// Buffers gathered into one sendmsg call (8 HTTP header+body pairs, or 16
// wire frames), far below any kernel IOV_MAX. It is also the most a
// connection queues before Pump writes: the back-pressure bound.
constexpr size_t kMaxReplyIov = 16;

}  // namespace

// Completed deferred replies, from any thread to the loop. Open while the
// loop runs; a reply posted before Open or after Close is dropped, and
// the wake pipe is written only under the mutex while open, so a late
// reply never writes to a closed (and maybe reused) descriptor.
class ReplyMailbox {
 public:
  struct Reply {
    int fd;
    uint64_t id;
    std::deque<std::string> buffers;
    bool close;
  };

  void Open(int wake_fd) EXCLUDES(mutex_) {
    common::MutexLock lock(&mutex_);
    wake_fd_ = wake_fd;
  }

  void Post(Reply reply) EXCLUDES(mutex_) {
    common::MutexLock lock(&mutex_);
    if (wake_fd_ < 0) return;
    // A non-empty list has a wake byte on its way already: the loop
    // drains the pipe before it takes the list.
    const bool wake = replies_.empty();
    replies_.push_back(std::move(reply));
    if (wake) {
      const char byte = 'r';
      [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &byte, 1);
    }
  }

  std::vector<Reply> Take() EXCLUDES(mutex_) {
    common::MutexLock lock(&mutex_);
    return std::exchange(replies_, {});
  }

  void Close() EXCLUDES(mutex_) {
    std::vector<Reply> dropped;
    common::MutexLock lock(&mutex_);
    wake_fd_ = -1;
    dropped.swap(replies_);
  }

 private:
  common::Mutex mutex_;
  int wake_fd_ GUARDED_BY(mutex_) = -1;
  std::vector<Reply> replies_ GUARDED_BY(mutex_);
};

void DeferredReply::Complete(std::deque<std::string> buffers,
                             bool close) const {
  mailbox_->Post({fd_, id_, std::move(buffers), close});
}

Server::Server(const ServerOptions& options, Protocol protocol)
    : options_(options),
      protocol_(std::move(protocol)),
      poller_(options.force_poll),
      mailbox_(std::make_shared<ReplyMailbox>()) {}

Server::~Server() { Stop(); }

bool Server::Start(std::string* error) {
  FOCUS_CHECK(!started_.load());
  listen_fd_ = protocol_.listen(options_.backlog, &port_, error);
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
  mailbox_->Open(wake_write_.get());
  started_.store(true);
  loop_ = std::thread([this]() { Loop(); });
  return true;
}

void Server::Wake() {
  if (!wake_write_.valid()) return;
  const char byte = 'w';
  [[maybe_unused]] const ssize_t n = ::write(wake_write_.get(), &byte, 1);
}

void Server::BeginDrain() {
  draining_.store(true, std::memory_order_relaxed);
  Wake();
}

bool Server::WaitDrained(int timeout_ms) {
  common::MutexLock lock(&drained_mutex_);
  return drained_cv_.WaitFor(drained_mutex_,
                             std::chrono::milliseconds(timeout_ms),
                             [this]() { return open_.load() == 0; });
}

void Server::Stop() {
  if (!started_.load()) return;
  stopping_.store(true);
  Wake();
  if (loop_.joinable()) loop_.join();
}

ServerStats Server::stats() const {
  ServerStats stats;
  stats.connections_accepted = accepted_.load(std::memory_order_relaxed);
  stats.connections_refused = refused_.load(std::memory_order_relaxed);
  stats.requests_handled = requests_.load(std::memory_order_relaxed);
  stats.parse_errors = parse_errors_.load(std::memory_order_relaxed);
  stats.deadline_closes = deadline_closes_.load(std::memory_order_acquire);
  stats.open_connections = open_.load(std::memory_order_relaxed);
  return stats;
}

void Server::Loop() {
  std::vector<Poller::Event> events;
  while (!stopping_.load(std::memory_order_relaxed)) {
    poller_.Wait(kTickMs, &events);
    const auto now = Clock::now();
    for (const Poller::Event& event : events) {
      if (event.fd == wake_read_.get()) {
        char sink[64];
        while (::read(wake_read_.get(), sink, sizeof(sink)) > 0) {}
        DeliverReplies(now);
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
        Pump(it->second.get(), now);
      }
    }
    CloseExpired(now);
    if (draining_.load(std::memory_order_relaxed)) {
      // Stop accepting: deregister and close the listener so the port is
      // released and new connects are refused by the kernel.
      if (listen_fd_.valid()) {
        poller_.Remove(listen_fd_.get());
        listen_fd_.Reset();
      }
      // Close connections sitting idle between requests; in-flight ones
      // finish their reply first, deferred ones included.
      std::vector<Connection*> idle;
      for (auto& [fd, conn] : connections_) {
        if (!conn->awaiting && conn->codec->idle() && conn->out.empty()) {
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
  // Replies still on their way find no server.
  mailbox_->Close();
}

void Server::AcceptNew(Clock::time_point now) {
  for (;;) {
    UniqueFd client(::accept(listen_fd_.get(), nullptr, nullptr));
    if (!client.valid()) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; retry on next readiness
    }
    if (draining_.load(std::memory_order_relaxed)) continue;  // close
    if (open_.load(std::memory_order_relaxed) >= options_.max_connections) {
      // Over the cap: send the refusal, then close. It is tiny; a fresh
      // socket's send buffer always takes it without blocking. The count
      // goes up first, so a client that has read the refusal sees it.
      refused_.fetch_add(1, std::memory_order_relaxed);
      [[maybe_unused]] const ssize_t n =
          ::send(client.get(), protocol_.refusal.data(),
                 protocol_.refusal.size(), MSG_NOSIGNAL);
      continue;
    }
    if (!SetNonBlocking(client.get())) continue;
    const int fd = client.get();
    auto conn = std::make_unique<Connection>();
    conn->fd = std::move(client);
    conn->id = next_connection_id_++;
    conn->codec = protocol_.new_codec();
    conn->last_activity = now;
    if (!poller_.Add(fd, /*want_read=*/true, /*want_write=*/false)) continue;
    connections_[fd] = std::move(conn);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    open_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::HandleReadable(Connection* conn, Clock::time_point now) {
  char buffer[16384];
  for (;;) {
    const ssize_t n = ::read(conn->fd.get(), buffer, sizeof(buffer));
    if (n > 0) {
      conn->last_activity = now;
      conn->codec->Feed(std::string_view(buffer, n));
      // Closed, replies wait for the socket, or a deferred reply is due:
      // read no further.
      if (!Pump(conn, now) || !conn->want_read) return;
      continue;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
    }
    // EOF or a read error. Reads happen only with nothing left to write,
    // so no reply is lost.
    CloseConnection(conn);
    return;
  }
}

bool Server::Pump(Connection* conn, Clock::time_point now) {
  bool need_more = false;
  do {
    while (!conn->close_after_write && !conn->awaiting &&
           conn->out.size() < kMaxReplyIov) {
      const Codec::Input input = conn->codec->next();
      if (input == Codec::Input::kNeedMore) {
        need_more = true;
        break;
      }
      // Counted before the handler runs, so a handler that reads the
      // stats (GET /metrics) sees its own request.
      (input == Codec::Input::kRequest ? requests_ : parse_errors_)
          .fetch_add(1, std::memory_order_relaxed);
      switch (conn->codec->Answer(
          draining_.load(std::memory_order_relaxed),
          DeferredReply(mailbox_, conn->fd.get(), conn->id), &conn->out)) {
        case Codec::After::kRead:
          break;
        case Codec::After::kClose:
          conn->close_after_write = true;
          break;
        case Codec::After::kAwait:
          conn->awaiting = true;
          break;
      }
    }
    if (!FlushWrites(conn, now)) return false;
    // An empty queue here means close_after_write is unset (FlushWrites
    // would have closed), so only a codec short of bytes, or a deferred
    // reply, stops the loop.
  } while (conn->out.empty() && !need_more && !conn->awaiting);
  // Back-pressure: while replies are queued, wait for the socket to take
  // them and read nothing; once they are written, read again, unless a
  // deferred reply is due (its arrival pumps the connection again).
  const bool want_write = !conn->out.empty();
  const bool want_read = !want_write && !conn->awaiting;
  if (want_write != conn->want_write || want_read != conn->want_read) {
    conn->want_write = want_write;
    conn->want_read = want_read;
    poller_.Update(conn->fd.get(), want_read, want_write);
  }
  return true;
}

void Server::DeliverReplies(Clock::time_point now) {
  for (ReplyMailbox::Reply& reply : mailbox_->Take()) {
    const auto it = connections_.find(reply.fd);
    // Gone, or the fd now belongs to a newer connection: drop the reply.
    if (it == connections_.end() || it->second->id != reply.id ||
        !it->second->awaiting) {
      continue;
    }
    Connection* conn = it->second.get();
    conn->awaiting = false;
    conn->last_activity = now;
    for (std::string& buffer : reply.buffers) {
      conn->out.push_back(std::move(buffer));
    }
    if (reply.close) conn->close_after_write = true;
    Pump(conn, now);
  }
}

bool Server::FlushWrites(Connection* conn, Clock::time_point now) {
  while (!conn->out.empty()) {
    // Gather the queued buffers into one iovec batch; sendmsg with
    // MSG_NOSIGNAL is writev plus SIGPIPE suppression.
    iovec iov[kMaxReplyIov];
    size_t iov_count = 0;
    size_t skip = conn->out_offset;
    for (const std::string& buffer : conn->out) {
      if (iov_count == kMaxReplyIov) break;
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
      // A peer taking replies is not silent.
      conn->last_activity = now;
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
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(conn);  // peer reset mid-reply
    return false;
  }
  if (conn->close_after_write) {
    CloseConnection(conn);
    return false;
  }
  return true;
}

void Server::CloseExpired(Clock::time_point now) {
  if (options_.read_deadline_ms <= 0) return;
  const auto deadline = std::chrono::milliseconds(options_.read_deadline_ms);
  std::vector<Connection*> expired;
  for (auto& [fd, conn] : connections_) {
    // A connection awaiting a deferred reply is not silent: the server
    // owes it bytes.
    if (conn->awaiting || now - conn->last_activity <= deadline) continue;
    // focus-analyze: allow(nondet-iteration) — close order is irrelevant
    expired.push_back(conn.get());
  }
  for (Connection* conn : expired) {
    // Count after the close, so a reader that sees the count also sees
    // the connection gone from open_connections.
    CloseConnection(conn);
    deadline_closes_.fetch_add(1, std::memory_order_release);
  }
}

void Server::CloseConnection(Connection* conn) {
  const int fd = conn->fd.get();
  poller_.Remove(fd);
  connections_.erase(fd);  // destroys conn; fd closed by UniqueFd
  open_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace focus::net
