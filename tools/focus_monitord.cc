// focus_monitord — streaming deviation-monitoring daemon.
//
// Watches a spool directory for incoming `focus-txns-v1` snapshot files,
// feeds them through the serve::MonitorService (two-stage delta* screen,
// bootstrap significance, CUSUM change-points), and appends alert events
// and metrics snapshots to JSONL logs.
//
//   focus_monitord --spool DIR --reference R.txns
//     [--minsup 0.01] [--factor 2.0] [--replicates 9] [--calibration 5]
//     [--warmup 5] [--slack 0.5] [--decision 5.0]
//     [--threads 4] [--queue 64] [--cache 64]
//     [--ooc 1]          (out-of-core ingest: each spool snapshot is
//                         stream-converted into a block file and served to
//                         the monitor block-by-block, never materialized
//                         flat. Mining and stage-2 counting stream the
//                         blocks and build no index, so ingest memory is
//                         bounded by the block cache plus the counters.
//                         Reports are bit-identical to flat ingest.)
//     [--block-size-kib 1024]   (--ooc block size, in [1, 2097151] so a
//                                block stays under the codec's 2 GiB cap)
//     [--events PATH]    (default <spool>/events.jsonl)
//     [--metrics PATH]   (default <spool>/metrics.jsonl)
//     [--prom PATH]      (Prometheus textfile, atomically rewritten on
//                         every metrics tick; for node_exporter's
//                         textfile collector)
//     [--poll-ms 200] [--metrics-every-ms 2000]
//     [--once 1] [--max-snapshots N] [--idle-exit-ms M]
//
// Every numeric flag must be entirely an integer in its range (--ooc and
// --once 0 or 1, --poll-ms >= 1, the other counts and times >= 0); "10s"
// or "1x" is a usage error, reported before the reference is read.
//
// Spool protocol: snapshot files are named `<stream>__<anything>.txns`
// (files without the `__` separator feed the stream "default"). Files in
// one stream are processed in lexicographic filename order — use a
// zero-padded sequence number. A consumed file moves to
// <spool>/processed/, a malformed one to <spool>/rejected/, so restarts
// never double-count.
//
// Exit conditions: --once scans the spool once, drains, and exits;
// --max-snapshots exits after N accepted snapshots; --idle-exit-ms exits
// after that long without new files. With none of these the daemon runs
// until killed.
//
// Exit status: 0 on success, 1 on usage errors, 2 on I/O failures.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "data/block_store.h"
#include "data/block_txn_db.h"
#include "io/data_io.h"
#include "serve/metrics.h"
#include "serve/monitor_service.h"

namespace focus::daemon {
namespace {

namespace fs = std::filesystem;

// Stream name encoded in a spool filename: `<stream>__rest.txns`.
std::string StreamOfFile(const fs::path& path) {
  const std::string stem = path.stem().string();
  const size_t sep = stem.find("__");
  return sep == std::string::npos ? "default" : stem.substr(0, sep);
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

// Appends one JSONL line, flushing so tail -f and crash recovery see it.
class JsonlWriter {
 public:
  explicit JsonlWriter(const std::string& path)
      : out_(path, std::ios::app), path_(path) {}

  bool ok() const { return static_cast<bool>(out_); }
  const std::string& path() const { return path_; }

  // Serialized: the event sink thread and the metrics ticker both append.
  void WriteLine(const std::string& json) EXCLUDES(mutex_) {
    common::MutexLock lock(&mutex_);
    out_ << json << '\n';
    out_.flush();
  }

 private:
  common::Mutex mutex_;
  std::ofstream out_ GUARDED_BY(mutex_);
  std::string path_;
};

int Run(const common::Flags& flags) {
  const std::string spool = flags.Get("spool", "");
  const std::string reference_path = flags.Get("reference", "");
  if (spool.empty() || reference_path.empty()) {
    std::fprintf(stderr, "focus_monitord requires --spool and --reference\n");
    return 1;
  }
  std::string error;
  const std::optional<serve::MonitorServiceOptions> options =
      serve::MonitorServiceOptionsFromFlags(flags, &error);
  if (!options.has_value()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  constexpr int kMaxBlockSizeKib = (1 << 21) - 1;
  int block_size_kib = 0;
  if (!common::ReadIntFlag(flags, "block-size-kib", 1024, 1, &block_size_kib,
                           &error, kMaxBlockSizeKib)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const int64_t block_size = int64_t{block_size_kib} * 1024;
  int ooc = 0;
  int once = 0;
  int max_snapshots = 0;
  int idle_exit_ms = 0;
  int poll_ms = 0;
  int metrics_every_ms = 0;
  if (!common::ReadIntFlag(flags, "ooc", 0, 0, &ooc, &error, 1) ||
      !common::ReadIntFlag(flags, "once", 0, 0, &once, &error, 1) ||
      !common::ReadIntFlag(flags, "max-snapshots", 0, 0, &max_snapshots,
                           &error) ||
      !common::ReadIntFlag(flags, "idle-exit-ms", 0, 0, &idle_exit_ms,
                           &error) ||
      !common::ReadIntFlag(flags, "poll-ms", 200, 1, &poll_ms, &error) ||
      !common::ReadIntFlag(flags, "metrics-every-ms", 2000, 0,
                           &metrics_every_ms, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::error_code ec;
  fs::create_directories(fs::path(spool) / "processed", ec);
  fs::create_directories(fs::path(spool) / "rejected", ec);
  if (ec) {
    std::fprintf(stderr, "cannot prepare spool directory %s\n", spool.c_str());
    return 2;
  }

  const auto reference = io::LoadTransactionDbFromFile(reference_path);
  if (!reference.has_value()) {
    std::fprintf(stderr, "cannot read --reference %s\n",
                 reference_path.c_str());
    return 2;
  }

  JsonlWriter events(flags.Get("events", spool + "/events.jsonl"));
  JsonlWriter metrics_log(flags.Get("metrics", spool + "/metrics.jsonl"));
  const std::string prom_path = flags.Get("prom", "");
  if (!events.ok() || !metrics_log.ok()) {
    std::fprintf(stderr, "cannot open event/metrics logs for append\n");
    return 2;
  }

  // The one reference build: indexing, mining and calibration all happen
  // here, before the first spool scan.
  serve::MetricsRegistry metrics;
  serve::MonitorService service(*options, *reference, &metrics);
  service.SetEventSink([&events](const serve::StreamEvent& event) {
    events.WriteLine(event.ToJson());
    if (event.change_point || event.report.alert) {
      std::printf("[%s #%lld] %s%s delta*=%.4f cusum=%.2f\n",
                  event.stream.c_str(),
                  static_cast<long long>(event.sequence),
                  event.report.alert ? "ALERT " : "",
                  event.change_point ? "CHANGE-POINT" : "",
                  event.report.upper_bound, event.cusum);
    }
  });

  std::printf(
      "focus_monitord: spool=%s reference=%s (%lld txns, calibrated once "
      "for every stream) threads=%d\n",
      spool.c_str(), reference_path.c_str(),
      static_cast<long long>(reference->num_transactions()),
      options->num_threads);

  int64_t accepted = 0;
  int64_t idle_ms = 0;
  int64_t since_metrics_ms = metrics_every_ms;  // emit one snapshot upfront

  for (;;) {
    // One spool scan: pick up *.txns files in lexicographic order.
    std::vector<fs::path> batch;
    for (const auto& entry : fs::directory_iterator(spool, ec)) {
      if (ec) break;
      if (!entry.is_regular_file()) continue;
      if (entry.path().extension() != ".txns") continue;
      batch.push_back(entry.path());
    }
    std::sort(batch.begin(), batch.end());

    for (const fs::path& path : batch) {
      std::string load_error;
      const std::string name = path.filename().string();
      serve::Snapshot snapshot;
      bool loaded = false;
      if (ooc) {
        snapshot.block_db =
            OpenSpoolSnapshotBlocks(path, block_size, &load_error);
        loaded = snapshot.block_db != nullptr;
      } else {
        auto snapshot_db =
            io::LoadTransactionDbFromFile(path.string(), &load_error);
        if (snapshot_db.has_value()) {
          snapshot.db = std::move(*snapshot_db);
          loaded = true;
        }
      }
      // Moves the file to rejected/ and logs why.
      const auto reject = [&](const std::string& reason) {
        metrics.GetCounter("spool_rejected_files").Increment();
        fs::rename(path, fs::path(spool) / "rejected" / name, ec);
        std::fprintf(stderr, "rejected malformed snapshot %s: %s\n",
                     name.c_str(), reason.c_str());
      };
      if (!loaded) {
        reject(load_error);
        continue;
      }
      snapshot.stream = StreamOfFile(path);
      snapshot.source = name;
      // Blocks on backpressure until the snapshot is accepted, which
      // registers a new stream and sequences it. A snapshot the service
      // cannot screen is quarantined like a malformed file; a refusal at
      // shutdown leaves the file in the spool for the next run.
      const serve::IngestResult ingest =
          service.Ingest(std::move(snapshot), std::nullopt);
      if (ingest.status == serve::SubmitResult::kInvalid) {
        reject(ingest.reason);
        continue;
      }
      if (ingest.status != serve::SubmitResult::kAccepted) break;
      fs::rename(path, fs::path(spool) / "processed" / name, ec);
      ++accepted;
    }

    if (!batch.empty()) idle_ms = 0;

    if (since_metrics_ms >= metrics_every_ms) {
      metrics_log.WriteLine(metrics.ToJson());
      if (!prom_path.empty() && !WritePromFile(prom_path, metrics)) {
        std::fprintf(stderr, "cannot write --prom %s\n", prom_path.c_str());
      }
      since_metrics_ms = 0;
    }

    if (once || (max_snapshots > 0 && accepted >= max_snapshots) ||
        (idle_exit_ms > 0 && idle_ms >= idle_exit_ms)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    idle_ms += poll_ms;
    since_metrics_ms += poll_ms;
  }

  service.Flush();
  service.Shutdown();
  metrics_log.WriteLine(metrics.ToJson());
  if (!prom_path.empty() && !WritePromFile(prom_path, metrics)) {
    std::fprintf(stderr, "cannot write --prom %s\n", prom_path.c_str());
  }
  std::printf(
      "focus_monitord: %lld snapshots accepted, %lld processed; events -> %s, "
      "metrics -> %s\n",
      static_cast<long long>(accepted),
      static_cast<long long>(service.processed()), events.path().c_str(),
      metrics_log.path().c_str());
  return 0;
}

}  // namespace
}  // namespace focus::daemon

int main(int argc, char** argv) {
  const auto flags = focus::common::Flags::Parse(
      argc, argv, 1,
      {"spool", "reference", "minsup", "factor", "replicates", "calibration",
       "warmup", "slack", "decision", "threads", "queue", "cache", "ooc",
       "block-size-kib", "events", "metrics", "prom", "poll-ms",
       "metrics-every-ms", "once", "max-snapshots", "idle-exit-ms"});
  if (!flags.has_value()) return 1;
  return focus::daemon::Run(*flags);
}
