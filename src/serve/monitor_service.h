#ifndef FOCUS_SERVE_MONITOR_SERVICE_H_
#define FOCUS_SERVE_MONITOR_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flags.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/drift_series.h"
#include "core/monitor.h"
#include "data/block_txn_db.h"
#include "data/transaction_db.h"
#include "data/txn_source.h"
#include "serve/fg_choice.h"
#include "serve/metrics.h"
#include "serve/model_cache.h"

namespace focus::serve {

struct MonitorServiceOptions {
  // Two-stage screening (delta* screen, then exact deviation + bootstrap
  // significance) — the paper's monitoring deployment. Configures the
  // service's one reference monitor, which every stream shares.
  core::MonitorOptions monitor;
  // Sequential change-point detection over each stream's delta* series.
  core::CusumOptions cusum;
  int num_threads = 4;              // worker pool size
  // In-flight bound: Ingest waits while this many accepted snapshots are
  // pending or being processed.
  size_t queue_capacity = 64;
  size_t model_cache_capacity = 64; // mined-model LRU entries
};

// The service flags of focus_served, with their defaults: --minsup 0.01
// --factor 2.0 --calibration 5 --replicates 9 --warmup 5 --slack 0.5
// --decision 5.0 --threads 4 --queue 64 --cache 64.
// A value outside the range the service checks (minsup in (0, 1],
// factor > 0, calibration >= 1, replicates >= 1, warmup >= 2, slack >= 0,
// decision > 0, threads, queue and cache >= 1) gives nullopt and one line
// in `*error` naming the flag and its range, so a daemon can exit with a
// usage error before it starts instead of aborting mid-service.
std::optional<MonitorServiceOptions> MonitorServiceOptionsFromFlags(
    const common::Flags& flags, std::string* error);

// One unit of ingest work: a dataset snapshot bound for a monitored
// stream. Exactly one of `db` / `block_db` carries the transactions:
// the daemon's --ooc ingest hands over an out-of-core block store (the
// snapshot is never materialized flat), every other producer fills the
// in-memory db. Consumers scan through source_ref(), which works for
// either, with bit-identical results.
struct Snapshot {
  std::string stream;      // monitored stream name
  int64_t sequence = 0;    // position within the stream; set by Ingest
  uint64_t content_hash = 0;  // TransactionDbContentHash; set by Ingest
  std::string source;      // originating file/path, echoed into events
  data::TransactionDb db;
  std::shared_ptr<const data::BlockTransactionDb> block_db;

  data::TxnSourceRef source_ref() const {
    return block_db != nullptr ? data::TxnSourceRef(block_db.get())
                               : data::TxnSourceRef(db);
  }
};

// One processed snapshot produces one event.
struct StreamEvent {
  std::string stream;
  int64_t sequence = 0;
  std::string source;
  int64_t num_transactions = 0;
  core::MonitorReport report;  // delta*, screen verdict, deviation, sig%
  double cusum = 0.0;          // accumulated drift statistic (over delta*)
  bool change_point = false;   // CUSUM crossed its decision threshold
  bool cache_hit = false;      // snapshot model came from the LRU cache
  double latency_ms = 0.0;     // inspect wall time

  // One JSONL record, e.g.
  //   {"type":"event","stream":"s","seq":3,…,"alert":true,…}
  std::string ToJson() const;
};

// Outcome of one MonitorService::Ingest call.
enum class SubmitResult {
  kAccepted,    // queued; will be processed in stream order
  kOverloaded,  // backpressure persisted past the deadline — retry later
  kShutdown,    // service is stopping; the snapshot was dropped
  kInvalid,     // the snapshot cannot be screened; do not retry it as is
};

// Verdict of MonitorService::Ingest.
struct IngestResult {
  SubmitResult status = SubmitResult::kShutdown;
  int64_t sequence = -1;  // the stream's dense sequence number if accepted
  // TransactionDbContentHash of the snapshot, the key its mined model is
  // cached under, if accepted.
  uint64_t content_hash = 0;
  std::string reason{};   // why, when kInvalid
};

// Point-in-time view of one stream, answering GET /v1/streams/{name}/…
// without touching raw data: the latest processed snapshot's screening
// report plus the sequential CUSUM state.
struct StreamStatus {
  int64_t processed = 0;        // snapshots processed for this stream
  bool has_snapshot = false;    // false until the first one completes
  int64_t sequence = -1;        // of the latest processed snapshot
  int64_t num_transactions = 0;
  double delta_star = 0.0;
  bool screened_out = false;
  double deviation = 0.0;       // exact delta (when not screened)
  double significance_percent = 0.0;
  bool alert = false;
  double cusum = 0.0;
  bool change_point = false;
  bool baseline_ready = false;
  double baseline_mean = 0.0;
  double baseline_sd = 0.0;
};

// StreamStatus plus the deviation under a caller-chosen (f,g).
struct StreamDeviation {
  StreamStatus status;
  bool has_deviation = false;  // false while status.has_snapshot is false
  double deviation = 0.0;      // delta_(f,g)(reference, latest snapshot)
};

// Long-running monitoring service: N independent snapshot streams served
// concurrently on a shared worker pool, all screened against one reference
// (the paper's §1 workflow: one baseline, many snapshots).
//
// Ingestion path: Ingest (waits for an in-flight slot: backpressure) →
// the stream's pending deque → one pool drain job per stream.
// Snapshots of ONE stream are processed strictly in sequence order (the
// CUSUM statistic is sequential); distinct streams proceed in parallel.
// Each snapshot is mined at most once via the content-hash model cache,
// screened by the service's one immutable LitsChangeMonitor, and fed to
// the stream's DeviationCusum; the resulting event goes to the
// (serialized) event sink and into the metrics registry.
class MonitorService {
 public:
  // Builds the reference monitor every stream shares: copies `reference`,
  // mines it, and calibrates the stage-1 threshold. This is the expensive
  // step, and it runs here, once per service, before any thread starts;
  // nothing on an ingest or query path builds a reference.
  // `reference` may die after the constructor returns. `metrics` may be
  // null (no telemetry); it must outlive the service.
  MonitorService(const MonitorServiceOptions& options,
                 const data::TransactionDb& reference,
                 MetricsRegistry* metrics);
  ~MonitorService();  // Shutdown()

  MonitorService(const MonitorService&) = delete;
  MonitorService& operator=(const MonitorService&) = delete;

  // Registers a stream with no snapshots yet: O(1), it only creates the
  // stream's CUSUM state and an empty pending deque. Optional: Ingest
  // registers a stream on its first accepted snapshot.
  void AddStream(const std::string& name) EXCLUDES(state_mutex_);

  // Names of all registered streams, sorted. The canonical enumeration
  // order for cross-stream aggregates: single-node and sharded summaries
  // both fold per-stream deviations in this order, which is what makes the
  // distributed g_sum bit-identical (FP addition is order-sensitive).
  std::vector<std::string> ListStreams() const EXCLUDES(state_mutex_);

  // Invoked once per processed snapshot; calls are serialized. Set before
  // the first Ingest.
  void SetEventSink(std::function<void(const StreamEvent&)> sink)
      EXCLUDES(sink_mutex_);

  // The one ingest path. Waits for an in-flight slot (fewer than
  // queue_capacity snapshots pending or processing): at most `wait`, or
  // with no limit when `wait` is nullopt. Then, in one critical section,
  // registers `snapshot.stream` on its first accepted snapshot (O(1), like
  // AddStream), stamps the stream's next sequence number, appends the
  // snapshot to the stream's pending deque and starts its drain job if
  // none is running; so a stream's sequence order is its processing order.
  // kOverloaded (the wait ran out) tells a network front end to answer 429
  // and shed the snapshot onto the client; kShutdown follows Shutdown.
  // Before any of this, a snapshot with no transactions, with an item
  // universe other than the reference's, or with more transactions than
  // stage 2's pool has room for beside the reference's
  // (core::kMaxNullPoolTransactions), is refused as kInvalid with a
  // reason: mining and stage 2 need all three. A valid snapshot is then
  // hashed, once and before the wait: the hash goes back in the result
  // and, with the snapshot, to the model cache. A snapshot that is not
  // accepted registers nothing and burns no number, which keeps every
  // stream's sequences dense.
  IngestResult Ingest(Snapshot snapshot,
                      std::optional<std::chrono::milliseconds> wait)
      EXCLUDES(state_mutex_);

  // Latest per-stream state; nullopt for unknown streams. O(1), no data
  // scan.
  std::optional<StreamStatus> GetStreamStatus(const std::string& name) const
      EXCLUDES(state_mutex_);

  // Status plus the deviation of the latest processed snapshot against
  // the reference under `fg`, from the reference's model and the snapshot's
  // CACHED model (never mined again). The stream memoizes the deviation
  // under every FgChoice until its next publish. The first read after a
  // publish, under any `fg` (a registry `read_memo_misses`), extends both
  // models to their GCR once, by scanning the reference and the cached
  // transactions, computes all four (LitsDeviationsByFg), and stores them
  // only if no publish happened meanwhile, so a reply's deviation always
  // belongs to the snapshot its status reports. Later reads under any `fg`
  // return a stored double (a `read_memo_hits`). nullopt for unknown
  // streams.
  std::optional<StreamDeviation> QueryDeviation(const std::string& name,
                                                FgChoice fg) const
      EXCLUDES(state_mutex_);

  // Blocks until every snapshot accepted so far has been processed.
  void Flush() EXCLUDES(state_mutex_);

  // Stops intake (Ingest answers kShutdown, and callers blocked on
  // backpressure wake), drains in-flight work, joins the workers.
  // Idempotent; also run by the destructor.
  void Shutdown() EXCLUDES(state_mutex_);

  int64_t processed() const EXCLUDES(state_mutex_);
  const ModelCache& model_cache() const { return model_cache_; }
  // Mutable view for front ends that resolve content hashes themselves
  // (POST /v1/compare); lookups promote entries in the LRU order.
  ModelCache& model_cache() { return model_cache_; }

 private:
  struct Stream {
    core::DeviationCusum cusum;
    // The next six fields are guarded by the owning service's
    // state_mutex_ (a nested struct cannot name the outer instance's
    // mutex in GUARDED_BY); every access happens inside the REQUIRES(
    // state_mutex_) helpers below or under an explicit MutexLock.
    std::deque<Snapshot> pending;
    bool draining = false;         // a drain job owns this stream
    // Published at the end of each Process under state_mutex_, so
    // queries never race the worker that owns the stream.
    StreamStatus status;
    MinedSnapshot last_mined;      // cache entry of the latest snapshot
    // last_mined's deviation under every FgChoice, filled by
    // QueryDeviation and cleared by each publish.
    std::optional<FgDeviations> deviations;
    int64_t next_sequence = 0;     // of the next accepted Ingest

    explicit Stream(const core::CusumOptions& cusum_options)
        : cusum(cusum_options) {}
  };

  // The stream named `name`, registered first if it is new.
  Stream* FindOrAddStreamLocked(const std::string& name)
      REQUIRES(state_mutex_);
  void DrainStream(Stream* stream) EXCLUDES(state_mutex_);
  StreamEvent Process(Stream* stream, Snapshot snapshot)
      EXCLUDES(state_mutex_);
  void FinishOne() EXCLUDES(state_mutex_);
  // Pops the next snapshot of `stream` into `out`; false (and clears the
  // stream's draining flag) when none are pending.
  bool TakeNextPendingLocked(Stream* stream, Snapshot* out)
      REQUIRES(state_mutex_);
  // Publishes the queryable per-stream view after one Process.
  void PublishStatusLocked(Stream* stream, const StreamEvent& event,
                           const MinedSnapshot& mined)
      REQUIRES(state_mutex_);

  const MonitorServiceOptions options_;
  MetricsRegistry* const metrics_;  // may be null
  // The series updated under state_mutex_, resolved once at construction
  // (stable addresses) or null: a registry lookup there would hold the
  // state lock while waiting for the registry's, e.g. behind a /metrics
  // render. The read memo's two counters are resolved alike, to keep a
  // registry lookup off every read.
  Gauge* const streams_gauge_;
  Gauge* const queue_depth_gauge_;
  Counter* const submitted_counter_;
  Counter* const shed_counter_;
  Counter* const read_memo_hits_;
  Counter* const read_memo_misses_;
  // Built in the constructor, before the pool starts, and never mutated
  // after: every stream's drain job and QueryDeviation read it
  // concurrently without a lock.
  const core::LitsChangeMonitor monitor_;
  ModelCache model_cache_;
  std::unique_ptr<common::ThreadPool> pool_;

  mutable common::Mutex state_mutex_;
  common::CondVar idle_cv_;
  std::unordered_map<std::string, std::unique_ptr<Stream>> streams_
      GUARDED_BY(state_mutex_);
  // accepted but not yet fully processed; at most queue_capacity
  int64_t in_flight_ GUARDED_BY(state_mutex_) = 0;
  int64_t processed_ GUARDED_BY(state_mutex_) = 0;
  bool shutdown_ GUARDED_BY(state_mutex_) = false;

  common::Mutex sink_mutex_;
  std::function<void(const StreamEvent&)> sink_ GUARDED_BY(sink_mutex_);
};

}  // namespace focus::serve

#endif  // FOCUS_SERVE_MONITOR_SERVICE_H_
