// focus_served — deviation monitoring over the network.
//
// Boots the serve::MonitorService behind the src/net/ HTTP/1.1 server and
// exposes the serving layer to remote producers:
//
//   POST /v1/streams/{name}/snapshots    ingest a focus-txns-v1 snapshot
//        202 {"stream","sequence","content_hash"}; 429 + Retry-After when
//        the ingest queue is saturated; 400 on malformed payloads
//   GET  /v1/streams/{name}/deviation?f=abs|scaled&g=sum|max
//        latest window deviation + CUSUM state
//   POST /v1/compare?left=H&right=H&f=…&g=…
//        deviation between two previously ingested snapshots (by content
//        hash, via the model cache — no raw-data rescan)
//   GET  /v1/deviation/summary?f=…&g=…   cross-stream aggregate
//   GET  /metrics   Prometheus text exposition (?format=json)
//   GET  /healthz   {"status":"ok"|"draining"}
//
//   focus_served --reference R.txns
//     [--address 127.0.0.1] [--port 8080] [--port-file PATH]
//     [--minsup 0.01] [--factor 2.0] [--replicates 9] [--calibration 5]
//     [--warmup 5] [--slack 0.5] [--decision 5.0]
//     [--threads 4] [--queue 64] [--cache 64]
//     [--max-connections 256] [--read-deadline-ms 10000]
//     [--ingest-wait-ms 20] [--events PATH]
//     [--shards 0] [--reactors 1] [--shard-dir PATH]
//
// --port 0 binds a kernel-assigned ephemeral port; --port-file writes the
// bound port as a single line once the server is listening (how the
// integration tests and scripts find it). An int flag outside its range,
// or a numeric flag that is not entirely a number ("10s", "4x"), is a
// usage error, reported before the reference is read, as is an
// out-of-range service flag: --port [0, 65535], --shards and
// --ingest-wait-ms [0, INT_MAX], --reactors and --read-deadline-ms
// [1, INT_MAX], --max-connections [--reactors, INT_MAX] (each reactor
// takes an equal share of the connections).
//
// Every deployment is the one of docs/SHARDING.md: --reactors
// SO_REUSEPORT event loops, each with its own shard::ShardedApi and
// ShardRouter, in front of shard workers that each run a full
// MonitorService. --shards 0 (the default) runs one worker in this
// process behind a LocalShardChannel; --events PATH appends its
// StreamEvent JSONL there. --shards N (N >= 1) forks N worker processes,
// each serving the shard wire protocol, over the same net::Server loop
// as the reactors' HTTP, on a Unix socket under --shard-dir
// (default: a fresh temp directory); they keep no event log, so --events
// is a usage error there. Workers are forked before any thread exists, so
// the daemon stays clean under TSan. The answers are bit-identical for
// every N (tests/laws/laws_shard_test.cc).
//
// Each worker mines and calibrates the reference once, at start-up, before
// --port-file is written; streams then register in O(1), so no request
// waits for a reference build. A worker that exits during start-up fails
// the daemon with status 2.
//
// SIGTERM/SIGINT trigger a graceful drain: /healthz flips to "draining",
// the listeners close, idle keep-alive connections are shut, in-flight
// requests finish, then every worker flushes its ingest queue (forked
// workers are SIGTERMed, drain the same way, and are reaped) and the
// process exits 0. A signal that arrives before the daemon serves (while
// it reads the reference or a worker calibrates) ends it at once instead:
// it writes no --port-file, stops and reaps any forked worker, and dies
// of that signal (a shell reports 128 + the signal number, 143 for
// SIGTERM).
//
// Exit status: 0 on success (including signal-triggered drain), 1 on
// usage errors, 2 on I/O or bind failures (or a worker that did not
// drain cleanly); killed by the signal when one arrives during start-up.

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "io/data_io.h"
#include "net/http_server.h"
#include "serve/metrics.h"
#include "serve/monitor_service.h"
#include "shard/shard_client.h"
#include "shard/shard_router.h"
#include "shard/shard_worker.h"
#include "shard/sharded_api.h"

namespace focus::daemon {
namespace {

volatile std::sig_atomic_t g_signal = 0;

void OnSignal(int sig) { g_signal = sig; }

void InstallSignalHandlers() {
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
#ifdef SIGPIPE
  std::signal(SIGPIPE, SIG_IGN);
#endif
}

// The options every shard worker runs with, shard_index aside; nullopt,
// with `*error` naming the flag, when a service flag is out of range.
std::optional<shard::ShardWorkerOptions> WorkerOptions(
    const common::Flags& flags, std::string* error) {
  const std::optional<serve::MonitorServiceOptions> service =
      serve::MonitorServiceOptionsFromFlags(flags, error);
  if (!service.has_value()) return std::nullopt;
  shard::ShardWorkerOptions options;
  options.service = *service;
  if (!common::ReadIntFlag(flags, "ingest-wait-ms", 20, 0,
                           &options.ingest_wait_ms, error)) {
    return std::nullopt;
  }
  return options;
}

// Stops taking work, waits for in-flight frames, flushes the ingest queue;
// returns the snapshots the worker processed.
int64_t DrainWorker(shard::ShardWorker* worker, int deadline_ms) {
  worker->BeginDrain();
  worker->WaitDrained(deadline_ms);
  worker->Stop();
  return worker->service().processed();
}

// A forked worker process: one ShardWorker on one Unix socket, drained on
// SIGTERM once it serves. The worker calibrates against the reference
// before it binds, so the front end's start-up ping waits for that.
int WorkerMain(const shard::ShardWorkerOptions& options, int read_deadline_ms,
               const data::TransactionDb& reference,
               const std::string& socket_path) {
  // Until it serves, a signal ends the worker at once: its calibration has
  // no time bound.
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  if (g_signal != 0) return 0;  // caught between the fork and the reset
  const uint32_t shard_index = options.shard_index;
  shard::ShardWorker worker(options, reference, nullptr);
  InstallSignalHandlers();
  shard::WireServerOptions server_options;
  server_options.unix_path = socket_path;
  server_options.read_deadline_ms = read_deadline_ms;
  std::string error;
  if (!worker.Serve(server_options, &error)) {
    std::fprintf(stderr, "focus_served[shard %u]: cannot listen on %s: %s\n",
                 shard_index, socket_path.c_str(), error.c_str());
    return 2;
  }

  while (g_signal == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const int64_t processed = DrainWorker(&worker, read_deadline_ms);
  std::printf("focus_served[shard %u]: drained; %lld snapshots processed\n",
              shard_index, static_cast<long long>(processed));
  return 0;
}

// --shards N: the forked worker processes and their socket directory.
struct ForkedShards {
  std::string dir;
  bool made_dir = false;
  std::vector<std::string> socket_paths;
  std::vector<pid_t> pids;

  // Reaps, without blocking, every worker that has already exited and
  // drops it from `pids`, so Shutdown neither signals nor waits on it
  // again. False when one had; `error` then names it.
  bool AllRunning(std::string* error) {
    bool running = true;
    for (auto it = pids.begin(); it != pids.end();) {
      int status = 0;
      if (::waitpid(*it, &status, WNOHANG) != *it) {
        ++it;
        continue;
      }
      *error = "worker pid " + std::to_string(*it) + " exited" +
               (WIFEXITED(status)
                    ? " with status " + std::to_string(WEXITSTATUS(status))
                    : " on a signal");
      it = pids.erase(it);
      running = false;
    }
    return running;
  }

  // Signals and reaps every worker, then removes the sockets (and the
  // directory, if this process created it). True when all exited 0.
  bool Shutdown(int sig) {
    for (const pid_t pid : pids) ::kill(pid, sig);
    bool all_clean = true;
    for (const pid_t pid : pids) {
      int status = 0;
      if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
          WEXITSTATUS(status) != 0) {
        all_clean = false;
      }
    }
    pids.clear();
    if (made_dir) {
      for (const std::string& path : socket_paths) ::unlink(path.c_str());
      ::rmdir(dir.c_str());
    }
    return all_clean;
  }
};

// Creates --shard-dir and forks one worker per shard. Must run while this
// process is still single-threaded (no servers, no clients, no in-process
// worker) — the only fork() discipline that is safe under TSan and avoids
// inheriting locked mutexes. Returns an exit status; 0 on success.
int ForkShards(const common::Flags& flags,
               const shard::ShardWorkerOptions& worker_options,
               int read_deadline_ms, const data::TransactionDb& reference,
               int num_shards, ForkedShards* shards) {
  shards->dir = flags.Get("shard-dir", "");
  if (shards->dir.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    std::string pattern =
        std::string(tmp != nullptr ? tmp : "/tmp") + "/focus_shard_XXXXXX";
    std::vector<char> buffer(pattern.begin(), pattern.end());
    buffer.push_back('\0');
    if (::mkdtemp(buffer.data()) == nullptr) {
      std::perror("focus_served: mkdtemp");
      return 2;
    }
    shards->dir.assign(buffer.data());
    shards->made_dir = true;
  } else if (::mkdir(shards->dir.c_str(), 0700) == 0) {
    // Same contract as focus_monitord's spool dir: create a missing
    // --shard-dir instead of erroring (and clean it up on exit).
    shards->made_dir = true;
  } else if (errno != EEXIST) {
    std::fprintf(stderr, "focus_served: cannot create shard dir %s: %s\n",
                 shards->dir.c_str(), std::strerror(errno));
    return 2;
  }

  for (int i = 0; i < num_shards; ++i) {
    shards->socket_paths.push_back(shards->dir + "/shard-" +
                                   std::to_string(i) + ".sock");
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("focus_served: fork");
      shards->Shutdown(SIGKILL);
      return 2;
    }
    if (pid == 0) {
      shard::ShardWorkerOptions options = worker_options;
      options.shard_index = static_cast<uint32_t>(i);
      std::exit(WorkerMain(options, read_deadline_ms, reference,
                           shards->socket_paths.back()));
    }
    shards->pids.push_back(pid);
  }
  return 0;
}

// One SO_REUSEPORT front-end reactor: its own shard clients + router +
// api + event loop, so nothing serializes across reactors but the kernel
// accept queue.
struct Reactor {
  std::vector<std::unique_ptr<shard::ShardClient>> clients;
  std::unique_ptr<shard::ShardRouter> router;
  std::unique_ptr<shard::ShardedApi> api;
  std::unique_ptr<net::HttpServer> server;
};

int Run(const common::Flags& flags) {
  const std::string reference_path = flags.Get("reference", "");
  if (reference_path.empty()) {
    std::fprintf(stderr, "focus_served requires --reference\n");
    return 1;
  }
  // An int flag out of its range is a usage error; none may wrap. Each
  // reactor gets max-connections / reactors slots, so fewer connections
  // than reactors would leave one with none.
  int num_shards = 0, num_reactors = 0, max_connections = 0;
  int read_deadline_ms = 0, port = 0;
  std::string flag_error;
  if (!common::ReadIntFlag(flags, "shards", 0, 0, &num_shards, &flag_error) ||
      !common::ReadIntFlag(flags, "reactors", 1, 1, &num_reactors,
                           &flag_error) ||
      !common::ReadIntFlag(flags, "max-connections", 256, num_reactors,
                           &max_connections, &flag_error) ||
      !common::ReadIntFlag(flags, "read-deadline-ms", 10'000, 1,
                           &read_deadline_ms, &flag_error) ||
      !common::ReadIntFlag(flags, "port", 8080, 0, &port, &flag_error,
                           65535)) {
    std::fprintf(stderr, "%s\n", flag_error.c_str());
    return 1;
  }
  const std::string events_path = flags.Get("events", "");
  if (num_shards > 0 && !events_path.empty()) {
    std::fprintf(stderr,
                 "--events needs --shards 0: forked shard workers keep no "
                 "event log\n");
    return 1;
  }
  const std::optional<shard::ShardWorkerOptions> worker_options =
      WorkerOptions(flags, &flag_error);
  if (!worker_options.has_value()) {
    std::fprintf(stderr, "%s\n", flag_error.c_str());
    return 1;
  }
  const auto reference = io::LoadTransactionDbFromFile(reference_path);
  if (!reference.has_value()) {
    std::fprintf(stderr, "cannot read --reference %s\n",
                 reference_path.c_str());
    return 2;
  }

  // The workers: N forked processes, or (--shards 0) one in this process
  // that shares the daemon's registry, so /metrics carries its unlabelled
  // service and cache series. Each worker keeps the default SIGTERM and
  // SIGINT action until it serves. The front end catches them from before
  // the first fork, so that it can always stop and reap its workers.
  ForkedShards forked;
  serve::MetricsRegistry metrics;
  std::ofstream events;
  std::unique_ptr<shard::ShardWorker> local_worker;
  std::unique_ptr<shard::LocalShardChannel> local_channel;
  if (num_shards > 0) {
    InstallSignalHandlers();
    const int status = ForkShards(flags, *worker_options, read_deadline_ms,
                                  *reference, num_shards, &forked);
    if (status != 0) return status;
  } else {
    local_worker = std::make_unique<shard::ShardWorker>(*worker_options,
                                                        *reference, &metrics);
    InstallSignalHandlers();
    local_channel =
        std::make_unique<shard::LocalShardChannel>(local_worker.get());
    if (!events_path.empty()) {
      events.open(events_path, std::ios::app);
      if (!events) {
        std::fprintf(stderr, "cannot open --events %s for append\n",
                     events_path.c_str());
        return 2;
      }
      local_worker->service().SetEventSink(
          [&events](const serve::StreamEvent& event) {
            events << event.ToJson() << '\n';
            events.flush();
          });
    }
  }

  std::vector<Reactor> reactors(static_cast<size_t>(num_reactors));
  uint16_t bound_port = 0;
  for (int r = 0; r < num_reactors; ++r) {
    Reactor& reactor = reactors[static_cast<size_t>(r)];
    std::vector<shard::ShardChannel*> channels;
    if (local_channel != nullptr) channels.push_back(local_channel.get());
    for (const std::string& path : forked.socket_paths) {
      reactor.clients.push_back(std::make_unique<shard::ShardClient>(path));
      channels.push_back(reactor.clients.back().get());
    }
    reactor.router = std::make_unique<shard::ShardRouter>(channels);
    shard::ShardedApiOptions api_options;
    api_options.reactor_index = r;
    reactor.api = std::make_unique<shard::ShardedApi>(
        api_options, reactor.router.get(), &metrics);

    net::HttpServerOptions server_options;
    server_options.bind_address = flags.Get("address", "127.0.0.1");
    // Reactor 0 binds the requested port (possibly ephemeral); the rest
    // join it through SO_REUSEPORT so the kernel spreads connections.
    server_options.port = r == 0 ? static_cast<uint16_t>(port) : bound_port;
    server_options.reuse_port = num_reactors > 1;
    server_options.max_connections = max_connections / num_reactors;
    server_options.read_deadline_ms = read_deadline_ms;
    reactor.server = std::make_unique<net::HttpServer>(
        server_options, reactor.api->BuildRouter());
    reactor.api->AttachServer(reactor.server.get());
    std::string error;
    if (!reactor.server->Start(&error)) {
      std::fprintf(stderr, "cannot start reactor %d on %s:%d: %s\n", r,
                   server_options.bind_address.c_str(),
                   static_cast<int>(server_options.port), error.c_str());
      forked.Shutdown(SIGTERM);
      return 2;
    }
    if (r == 0) bound_port = reactor.server->port();
  }

  // Wait until every worker answers a ping (a forked socket appears once
  // its child has calibrated and bound). However long calibration takes,
  // keep waiting; stop at once on a worker that exited, or on a signal.
  {
    std::string error;
    while (g_signal == 0 && !reactors[0].router->PingAll(&error)) {
      if (!forked.AllRunning(&error)) {
        std::fprintf(stderr, "focus_served: shard workers not up: %s\n",
                     error.c_str());
        forked.Shutdown(SIGTERM);
        return 2;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  if (g_signal != 0) {
    // A signal before serving ends start-up the way it ends a calibrating
    // in-process worker: the workers are stopped (one still calibrating
    // dies of the signal) and reaped, and the daemon dies of it too.
    const int sig = g_signal;
    forked.Shutdown(SIGTERM);
    std::signal(sig, SIG_DFL);
    std::raise(sig);
    return 2;  // not reached
  }

  const std::string port_file = flags.Get("port-file", "");
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << bound_port << '\n';
    if (!out) {
      std::fprintf(stderr, "cannot write --port-file %s\n",
                   port_file.c_str());
      forked.Shutdown(SIGTERM);
      return 2;
    }
  }

  const std::string workers =
      num_shards == 0 ? std::string("1 in-process worker")
                      : std::to_string(num_shards) + " shards";
  std::printf(
      "focus_served: listening on %s:%u, %s x %d reactors, reference=%s "
      "(%lld txns)\n",
      flags.Get("address", "127.0.0.1").c_str(),
      static_cast<unsigned>(bound_port), workers.c_str(), num_reactors,
      reference_path.c_str(),
      static_cast<long long>(reference->num_transactions()));
  std::fflush(stdout);

  while (g_signal == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("focus_served: signal %d, draining…\n",
              static_cast<int>(g_signal));
  std::fflush(stdout);
  // Front end first (stop taking requests), then the workers, which
  // finish everything already accepted.
  for (Reactor& reactor : reactors) reactor.api->SetDraining(true);
  for (Reactor& reactor : reactors) reactor.server->BeginDrain();
  for (Reactor& reactor : reactors) {
    reactor.server->WaitDrained(read_deadline_ms);
  }
  for (Reactor& reactor : reactors) reactor.server->Stop();
  bool workers_clean = true;
  std::string worker_summary;
  if (local_worker != nullptr) {
    const int64_t processed = DrainWorker(local_worker.get(), read_deadline_ms);
    worker_summary = std::to_string(processed) + " snapshots processed";
  } else {
    workers_clean = forked.Shutdown(SIGTERM);
    worker_summary = std::to_string(num_shards) + " workers " +
                     (workers_clean ? "clean" : "UNCLEAN");
  }

  int64_t requests = 0, connections = 0;
  for (const Reactor& reactor : reactors) {
    const net::ServerStats stats = reactor.server->stats();
    requests += stats.requests_handled;
    connections += stats.connections_accepted;
  }
  std::printf("focus_served: drained; %lld requests over %lld connections, "
              "%s\n",
              static_cast<long long>(requests),
              static_cast<long long>(connections), worker_summary.c_str());
  return workers_clean ? 0 : 2;
}

}  // namespace
}  // namespace focus::daemon

int main(int argc, char** argv) {
  const auto flags = focus::common::Flags::Parse(
      argc, argv, 1,
      {"reference", "address", "port", "port-file", "minsup", "factor",
       "replicates", "calibration", "warmup", "slack", "decision", "threads",
       "queue", "cache", "max-connections", "read-deadline-ms",
       "ingest-wait-ms", "events", "shards", "reactors",
       "shard-dir"});
  if (!flags.has_value()) return 1;
  return focus::daemon::Run(*flags);
}
