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
//     [--metrics PATH] [--prom PATH] [--metrics-every-ms 2000]
//     [--shards 0] [--reactors 1] [--shard-dir PATH]
//     [--spool DIR [--ooc 0] [--block-size-kib 1024] [--poll-ms 200]
//                  [--once 0] [--max-snapshots 0] [--idle-exit-ms 0]]
//
// --port 0 binds a kernel-assigned ephemeral port; --port-file writes the
// bound port as a single line once the server is listening (how the
// integration tests and scripts find it). An int flag outside its range,
// or a numeric flag that is not entirely a number ("10s", "4x"), is a
// usage error, reported before the reference is read, as is an
// out-of-range service flag: --port [0, 65535], --shards,
// --ingest-wait-ms and --metrics-every-ms [0, INT_MAX], --reactors and
// --read-deadline-ms [1, INT_MAX], --max-connections [--reactors, INT_MAX]
// (each reactor takes an equal share of the connections).
//
// --metrics PATH appends the registry as one JSONL line every
// --metrics-every-ms and after the drain; --prom PATH rewrites it then as
// a Prometheus textfile (written aside, then renamed into place).
//
// --spool DIR (--shards 0 only) also feeds the in-process worker, from the
// main thread: every --poll-ms it ingests DIR's `*.txns` files in name
// order (`<stream>__<anything>.txns`, else the stream "default") and
// moves each to DIR/processed/ once accepted, or to DIR/rejected/ with
// its reason on stderr (malformed, unscreenable, or a stream name that
// HTTP could not address). --ooc 1 screens each file from blocks of
// --block-size-kib [1, 2097151], never flat. --events and --metrics
// default to DIR/events.jsonl and DIR/metrics.jsonl. --once 1, and
// --max-snapshots N accepted or --idle-exit-ms M idle, end the run
// through the SIGTERM drain. Without --spool, --ooc, --block-size-kib,
// --poll-ms, --once, --max-snapshots and --idle-exit-ms are usage errors.
// See docs/SERVING.md for the spool protocol.
//
// Every deployment is the one of docs/SHARDING.md: --reactors
// SO_REUSEPORT event loops, each with its own shard::ShardedApi and
// ShardRouter, in front of shard workers that each run a full
// MonitorService. --shards 0 (the default) runs one worker in this
// process behind a LocalShardChannel, whose ingest threads parse, hash and
// admit every POST while the reactors keep serving; --events PATH appends its
// StreamEvent JSONL there and echoes each alert or change point as one
// stdout line. --shards N (N >= 1) forks N worker processes, each serving
// the shard wire protocol, over the same net::Server loop as the
// reactors' HTTP, on a Unix socket under --shard-dir (default: a fresh
// temp directory); they keep no event log, so --events and --spool are
// usage errors there. Workers are forked before any thread exists, so the
// daemon stays clean under TSan. The answers are bit-identical for every
// N (tests/laws/laws_shard_test.cc).
//
// Each worker mines and calibrates the reference once, at start-up, before
// --port-file is written; streams then register in O(1), so no request
// waits for a reference build. A worker that exits during start-up fails
// the daemon with status 2.
//
// SIGTERM/SIGINT trigger a graceful drain: the spool scanner stops before
// its next file, /healthz flips to "draining", the listeners close, idle
// keep-alive connections are shut, in-flight requests finish, then every
// worker flushes its ingest queue (forked workers are SIGTERMed, drain the
// same way, and are reaped) and the process exits 0. A signal that
// arrives before the daemon serves (while it reads the reference or a
// worker calibrates) ends it at once instead: it writes no --port-file,
// stops and reaps any forked worker, and dies of that signal (a shell
// reports 128 + the signal number, 143 for SIGTERM).
//
// Exit status: 0 on success (including signal-triggered drain), 1 on
// usage errors, 2 on I/O or bind failures (or a worker that did not
// drain cleanly); killed by the signal when one arrives during start-up.

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "data/block_store.h"
#include "data/block_txn_db.h"
#include "io/data_io.h"
#include "net/http_server.h"
#include "serve/api_util.h"
#include "serve/metrics.h"
#include "serve/monitor_service.h"
#include "shard/shard_client.h"
#include "shard/shard_router.h"
#include "shard/shard_worker.h"
#include "shard/sharded_api.h"

namespace focus::daemon {
namespace {

namespace fs = std::filesystem;

volatile std::sig_atomic_t g_signal = 0;

void OnSignal(int sig) { g_signal = sig; }

void InstallSignalHandlers() {
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
#ifdef SIGPIPE
  std::signal(SIGPIPE, SIG_IGN);
#endif
}

// Rewrites a Prometheus textfile atomically (write tmp, rename) so a
// scraping textfile collector never reads a torn file.
bool WritePromFile(const std::string& path,
                   const serve::MetricsRegistry& metrics) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << metrics.ToPrometheusText();
    if (!out.flush()) return false;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  return !ec;
}

// --ooc ingest: stream-converts one text spool snapshot into a block file
// beside it, opens the result as an out-of-core database, and unlinks the
// block path immediately (the reader's open stream keeps the inode alive),
// so neither a crash nor normal processing leaves block files behind.
// Null + `*error` on malformed input — same strictness as the flat loader.
std::shared_ptr<const data::BlockTransactionDb> OpenSpoolSnapshotBlocks(
    const fs::path& path, int64_t block_size, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open file";
    return nullptr;
  }
  const std::string block_path = path.string() + ".fblk";
  {
    const auto out = data::OpenBlockFileForWrite(block_path);
    if (out == nullptr) {
      *error = "cannot create block file";
      return nullptr;
    }
    if (!io::ConvertTransactionTextToBlocks(in, *out, block_size, error)) {
      std::remove(block_path.c_str());
      return nullptr;
    }
  }
  data::BlockStoreOptions options;
  options.block_size = block_size;
  std::string open_error;
  std::shared_ptr<const data::BlockTransactionDb> db =
      data::BlockTransactionDb::OpenFile(block_path, options, &open_error);
  std::remove(block_path.c_str());
  if (db == nullptr) *error = "block reopen: " + open_error;
  return db;
}

// --spool DIR: the directory the main thread feeds to the in-process
// worker's service, and when that feed ends.
struct Spool {
  std::string dir;
  int ooc = 0;
  int block_size_kib = 0;
  int poll_ms = 0;
  int once = 0;
  int max_snapshots = 0;
  int idle_exit_ms = 0;
  int64_t accepted = 0;  // files moved to processed/
  int64_t idle_ms = 0;   // polled since the last scan that found a file

  // One scan: hands each `*.txns` file, in name order, to `service`,
  // waiting as long as its backpressure lasts, and moves it to processed/
  // once accepted or to rejected/ with the reason. Stops before the next
  // file on a signal, or when the service refuses work; the files left
  // wait for the next run.
  void Scan(serve::MonitorService* service, serve::MetricsRegistry* metrics) {
    std::error_code ec;
    std::vector<fs::path> batch;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      if (entry.is_regular_file(ec) && entry.path().extension() == ".txns") {
        batch.push_back(entry.path());
      }
    }
    std::sort(batch.begin(), batch.end());
    if (!batch.empty()) idle_ms = 0;

    for (const fs::path& path : batch) {
      if (g_signal != 0) return;
      const std::string name = path.filename().string();
      // `<stream>__rest.txns`; a file without the separator feeds
      // "default".
      const std::string stem = path.stem().string();
      const size_t sep = stem.find("__");
      serve::Snapshot snapshot;
      snapshot.stream =
          sep == std::string::npos ? "default" : stem.substr(0, sep);
      snapshot.source = name;
      // Each way to fail leaves its reason here.
      std::string reason;
      if (!serve::ValidStreamName(snapshot.stream)) {
        reason = "invalid stream name";
      } else if (ooc != 0) {
        snapshot.block_db = OpenSpoolSnapshotBlocks(
            path, int64_t{block_size_kib} * 1024, &reason);
      } else if (auto db =
                     io::LoadTransactionDbFromFile(path.string(), &reason)) {
        snapshot.db = std::move(*db);
      }
      if (reason.empty()) {
        // A snapshot the service cannot screen is quarantined like a
        // malformed file.
        const serve::IngestResult ingest =
            service->Ingest(std::move(snapshot), std::nullopt);
        if (ingest.status == serve::SubmitResult::kAccepted) {
          fs::rename(path, fs::path(dir) / "processed" / name, ec);
          ++accepted;
          continue;
        }
        if (ingest.status != serve::SubmitResult::kInvalid) return;
        reason = ingest.reason;
      }
      metrics->GetCounter("spool_rejected_files").Increment();
      fs::rename(path, fs::path(dir) / "rejected" / name, ec);
      std::fprintf(stderr, "rejected malformed snapshot %s: %s\n",
                   name.c_str(), reason.c_str());
    }
  }

  // Whether the run ends after this scan.
  bool Done() const {
    return once != 0 || (max_snapshots > 0 && accepted >= max_snapshots) ||
           (idle_exit_ms > 0 && idle_ms >= idle_exit_ms);
  }
};

// The --spool flags into `*spool`, which stays empty without --spool.
// False, with `*error` naming the flag, when one is out of range or is
// given without --spool.
bool ReadSpoolFlags(const common::Flags& flags, std::optional<Spool>* spool,
                    std::string* error) {
  Spool read;
  read.dir = flags.Get("spool", "");
  if (read.dir.empty()) {
    for (const char* name : {"ooc", "block-size-kib", "poll-ms", "once",
                             "max-snapshots", "idle-exit-ms"}) {
      if (flags.Has(name)) {
        *error = std::string("--") + name + " needs --spool";
        return false;
      }
    }
    return true;
  }
  constexpr int kMaxBlockSizeKib = (1 << 21) - 1;
  if (!common::ReadIntFlag(flags, "block-size-kib", 1024, 1,
                           &read.block_size_kib, error, kMaxBlockSizeKib) ||
      !common::ReadIntFlag(flags, "ooc", 0, 0, &read.ooc, error, 1) ||
      !common::ReadIntFlag(flags, "once", 0, 0, &read.once, error, 1) ||
      !common::ReadIntFlag(flags, "max-snapshots", 0, 0, &read.max_snapshots,
                           error) ||
      !common::ReadIntFlag(flags, "idle-exit-ms", 0, 0, &read.idle_exit_ms,
                           error) ||
      !common::ReadIntFlag(flags, "poll-ms", 200, 1, &read.poll_ms, error)) {
    return false;
  }
  *spool = std::move(read);
  return true;
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
    // Same contract as --spool: create a missing --shard-dir instead of
    // erroring (and clean it up on exit).
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

// One SO_REUSEPORT front-end reactor: its own shard clients under its
// own router, api and event loop, so nothing serializes across reactors
// but the kernel accept queue.
struct Reactor {
  std::vector<std::unique_ptr<shard::ShardClient>> clients;
  shard::Reactor front;
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
  std::optional<Spool> spool;
  int metrics_every_ms = 0;
  if (!ReadSpoolFlags(flags, &spool, &flag_error) ||
      !common::ReadIntFlag(flags, "metrics-every-ms", 2000, 0,
                           &metrics_every_ms, &flag_error)) {
    std::fprintf(stderr, "%s\n", flag_error.c_str());
    return 1;
  }
  if (num_shards > 0 && !flags.Get("events", "").empty()) {
    std::fprintf(stderr,
                 "--events needs --shards 0: forked shard workers keep no "
                 "event log\n");
    return 1;
  }
  if (num_shards > 0 && spool.has_value()) {
    std::fprintf(stderr,
                 "--spool needs --shards 0: it feeds the in-process worker\n");
    return 1;
  }
  const std::optional<shard::ShardWorkerOptions> worker_options =
      WorkerOptions(flags, &flag_error);
  if (!worker_options.has_value()) {
    std::fprintf(stderr, "%s\n", flag_error.c_str());
    return 1;
  }
  const std::string spool_dir = spool.has_value() ? spool->dir : "";
  const std::string events_path = flags.Get(
      "events", spool.has_value() ? spool_dir + "/events.jsonl" : "");
  const std::string metrics_path = flags.Get(
      "metrics", spool.has_value() ? spool_dir + "/metrics.jsonl" : "");
  const std::string prom_path = flags.Get("prom", "");
  if (spool.has_value()) {  // a missing spool directory is created
    for (const char* sub : {"processed", "rejected"}) {
      std::error_code ec;
      fs::create_directories(fs::path(spool_dir) / sub, ec);
      if (ec) {
        std::fprintf(stderr, "cannot prepare --spool %s\n", spool_dir.c_str());
        return 2;
      }
    }
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
  std::ofstream metrics_log;
  if (!metrics_path.empty()) {
    metrics_log.open(metrics_path, std::ios::app);
    if (!metrics_log) {
      std::fprintf(stderr, "cannot open --metrics %s for append\n",
                   metrics_path.c_str());
      return 2;
    }
  }
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
            if (event.change_point || event.report.alert) {
              std::printf("[%s #%lld] %s%s delta*=%.4f cusum=%.2f\n",
                          event.stream.c_str(),
                          static_cast<long long>(event.sequence),
                          event.report.alert ? "ALERT " : "",
                          event.change_point ? "CHANGE-POINT" : "",
                          event.report.upper_bound, event.cusum);
            }
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
    net::HttpServerOptions server_options;
    server_options.bind_address = flags.Get("address", "127.0.0.1");
    // Reactor 0 binds the requested port (possibly ephemeral); the rest
    // join it through SO_REUSEPORT so the kernel spreads connections.
    server_options.port = r == 0 ? static_cast<uint16_t>(port) : bound_port;
    server_options.reuse_port = num_reactors > 1;
    server_options.max_connections = max_connections / num_reactors;
    server_options.read_deadline_ms = read_deadline_ms;
    std::string error;
    if (!shard::StartReactor(r, channels, &metrics, server_options,
                             &reactor.front, &error)) {
      std::fprintf(stderr, "cannot start reactor %d on %s:%d: %s\n", r,
                   server_options.bind_address.c_str(),
                   static_cast<int>(server_options.port), error.c_str());
      forked.Shutdown(SIGTERM);
      return 2;
    }
    if (r == 0) bound_port = reactor.front.server->port();
  }

  // Wait until every worker answers a ping (a forked socket appears once
  // its child has calibrated and bound). However long calibration takes,
  // keep waiting; stop at once on a worker that exited, or on a signal.
  {
    std::string error;
    while (g_signal == 0 && !reactors[0].front.router->PingAll(&error)) {
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
      "(%lld txns)%s%s\n",
      flags.Get("address", "127.0.0.1").c_str(),
      static_cast<unsigned>(bound_port), workers.c_str(), num_reactors,
      reference_path.c_str(),
      static_cast<long long>(reference->num_transactions()),
      spool.has_value() ? ", spool=" : "", spool_dir.c_str());
  std::fflush(stdout);

  const auto write_metrics = [&] {
    if (metrics_log.is_open()) {
      metrics.WriteJsonLine(metrics_log);
      metrics_log.flush();
    }
    if (!prom_path.empty() && !WritePromFile(prom_path, metrics)) {
      std::fprintf(stderr, "cannot write --prom %s\n", prom_path.c_str());
    }
  };
  // The main thread feeds --spool and ticks --metrics and --prom until a
  // signal or a spool exit condition; either one then drains.
  const int poll_ms = spool.has_value() ? spool->poll_ms : 50;
  int64_t since_metrics_ms = metrics_every_ms;  // one tick up front
  while (g_signal == 0) {
    if (spool.has_value()) spool->Scan(&local_worker->service(), &metrics);
    if (since_metrics_ms >= metrics_every_ms) {
      write_metrics();
      since_metrics_ms = 0;
    }
    if (spool.has_value() && spool->Done()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    since_metrics_ms += poll_ms;
    if (spool.has_value()) spool->idle_ms += poll_ms;
  }

  if (g_signal != 0) {
    std::printf("focus_served: signal %d, draining…\n",
                static_cast<int>(g_signal));
  } else {
    std::printf("focus_served: spool done, draining…\n");
  }
  std::fflush(stdout);
  // Front end first (stop taking requests), then the workers, which
  // finish everything already accepted.
  for (Reactor& reactor : reactors) reactor.front.api->SetDraining(true);
  for (Reactor& reactor : reactors) reactor.front.server->BeginDrain();
  for (Reactor& reactor : reactors) {
    reactor.front.server->WaitDrained(read_deadline_ms);
  }
  for (Reactor& reactor : reactors) reactor.front.server->Stop();
  bool workers_clean = true;
  std::string worker_summary;
  if (local_worker != nullptr) {
    const int64_t processed = DrainWorker(local_worker.get(), read_deadline_ms);
    worker_summary = std::to_string(processed) + " snapshots processed";
    if (spool.has_value()) {
      worker_summary +=
          ", " + std::to_string(spool->accepted) + " from the spool";
    }
  } else {
    workers_clean = forked.Shutdown(SIGTERM);
    worker_summary = std::to_string(num_shards) + " workers " +
                     (workers_clean ? "clean" : "UNCLEAN");
  }

  write_metrics();

  int64_t requests = 0, connections = 0;
  for (const Reactor& reactor : reactors) {
    const net::ServerStats stats = reactor.front.server->stats();
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
       "ingest-wait-ms", "events", "metrics", "prom", "metrics-every-ms",
       "shards", "reactors", "shard-dir", "spool", "ooc", "block-size-kib",
       "poll-ms", "once", "max-snapshots", "idle-exit-ms"});
  if (!flags.has_value()) return 1;
  return focus::daemon::Run(*flags);
}
