#ifndef FOCUS_SERVE_MONITOR_SERVICE_H_
#define FOCUS_SERVE_MONITOR_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/flags.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/drift_series.h"
#include "core/monitor.h"
#include "serve/metrics.h"
#include "serve/model_cache.h"
#include "serve/snapshot_queue.h"

namespace focus::serve {

struct MonitorServiceOptions {
  // Two-stage screening (delta* screen, then exact deviation + bootstrap
  // significance) — the paper's monitoring deployment. Configures the
  // service's one reference monitor, which every stream shares.
  core::MonitorOptions monitor;
  // Sequential change-point detection over each stream's delta* series.
  core::CusumOptions cusum;
  int num_threads = 4;              // worker pool size
  size_t queue_capacity = 64;       // ingest bound; Push blocks beyond it
  size_t model_cache_capacity = 64; // mined-model LRU entries
  // Vertical index each cache miss builds. Block-backed (--ooc) ingest
  // should pick kRoaring so per-snapshot index memory stays proportional
  // to occurrences rather than |D|; results are bit-identical either way.
  data::IndexBackend index_backend = data::IndexBackend::kFlat;
};

// The service flags focus_monitord and focus_served share, with their
// defaults: --minsup 0.01 --factor 2.0 --calibration 5 --replicates 9
// --warmup 5 --slack 0.5 --decision 5.0 --threads 4 --queue 64 --cache 64.
// A value outside the range the service checks (minsup in (0, 1],
// factor > 0, calibration >= 1, replicates >= 1, warmup >= 2, slack >= 0,
// decision > 0, threads, queue and cache >= 1) gives nullopt and one line
// in `*error` naming the flag and its range, so a daemon can exit with a
// usage error before it starts instead of aborting mid-service.
std::optional<MonitorServiceOptions> MonitorServiceOptionsFromFlags(
    const common::Flags& flags, std::string* error);

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

// Outcome of a bounded-latency submission attempt (network ingest).
enum class SubmitResult {
  kAccepted,    // queued; will be processed in stream order
  kOverloaded,  // backpressure persisted past the deadline — retry later
  kShutdown,    // service is stopping; the snapshot was dropped
};

// Verdict of MonitorService::Ingest.
struct IngestResult {
  SubmitResult status = SubmitResult::kShutdown;
  int64_t sequence = -1;  // the stream's dense sequence number if accepted
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

// StreamStatus plus a deviation recomputed under a caller-chosen (f,g).
struct StreamDeviation {
  StreamStatus status;
  bool has_deviation = false;  // false while status.has_snapshot is false
  double deviation = 0.0;      // delta_(f,g)(reference, latest snapshot)
};

// Long-running monitoring service: N independent snapshot streams served
// concurrently on a shared worker pool, all screened against one reference
// (the paper's §1 workflow: one baseline, many snapshots).
//
// Ingestion path:  Submit → bounded SnapshotQueue (backpressure) →
// dispatcher thread → per-stream pending deques → pool drain jobs.
// Snapshots of ONE stream are processed strictly in submission order (the
// CUSUM statistic is sequential); distinct streams proceed in parallel.
// Each snapshot is mined at most once via the content-hash model cache,
// screened by the service's one immutable LitsChangeMonitor, and fed to
// the stream's DeviationCusum; the resulting event goes to the
// (serialized) event sink and into the metrics registry.
class MonitorService {
 public:
  // Builds the reference monitor every stream shares: copies `reference`,
  // indexes and mines it, and calibrates the stage-1 threshold. This is
  // the expensive step, and it runs here, once per service, before any
  // thread starts; nothing on an ingest or query path builds a reference.
  // `reference` may die after the constructor returns. `metrics` may be
  // null (no telemetry); it must outlive the service.
  MonitorService(const MonitorServiceOptions& options,
                 const data::TransactionDb& reference,
                 MetricsRegistry* metrics);
  ~MonitorService();  // Shutdown()

  MonitorService(const MonitorService&) = delete;
  MonitorService& operator=(const MonitorService&) = delete;

  // Registers a stream: O(1), it only creates the stream's CUSUM and
  // queue state. Must happen before snapshots of that stream are
  // submitted; Ingest does it on a stream's first snapshot.
  void AddStream(const std::string& name) EXCLUDES(state_mutex_);

  // Names of all registered streams, sorted. The canonical enumeration
  // order for cross-stream aggregates: single-node and sharded summaries
  // both fold per-stream deviations in this order, which is what makes the
  // distributed g_sum bit-identical (FP addition is order-sensitive).
  std::vector<std::string> ListStreams() const EXCLUDES(state_mutex_);

  // Invoked once per processed snapshot; calls are serialized. Set before
  // the first Submit.
  void SetEventSink(std::function<void(const StreamEvent&)> sink)
      EXCLUDES(sink_mutex_);

  // Enqueues a snapshot; blocks while the ingest queue is full. Returns
  // false (dropping the snapshot) after Shutdown. Snapshots for streams
  // that were never added are counted as rejected and dropped.
  bool Submit(Snapshot snapshot) EXCLUDES(state_mutex_);

  // Bounded-latency variant: waits at most `timeout` for backpressure to
  // clear instead of blocking indefinitely. kOverloaded tells a network
  // front end to answer 429 and shed the snapshot onto the client.
  SubmitResult TrySubmitFor(Snapshot snapshot,
                            std::chrono::milliseconds timeout)
      EXCLUDES(state_mutex_);

  // The one ingest path of both daemons. Registers `snapshot.stream` on
  // its first snapshot (O(1), like AddStream), stamps the stream's next
  // sequence number, and submits: waiting at most `wait` for backpressure
  // to clear, or until there is room when `wait` is nullopt. Calls are
  // serialized, so a stream registers exactly once and its sequence order
  // is its queue order; a snapshot that is not accepted burns no number,
  // which keeps every stream's sequences dense.
  IngestResult Ingest(Snapshot snapshot,
                      std::optional<std::chrono::milliseconds> wait)
      EXCLUDES(ingest_mutex_, state_mutex_);

  // Latest per-stream state; nullopt for unknown streams. O(1), no data
  // scan.
  std::optional<StreamStatus> GetStreamStatus(const std::string& name) const
      EXCLUDES(state_mutex_);

  // Status plus the deviation of the latest processed snapshot against
  // the reference under an arbitrary (f,g), computed over the CACHED
  // models and vertical indexes (never the raw transactions).
  // nullopt for unknown streams.
  std::optional<StreamDeviation> QueryDeviation(
      const std::string& name, const core::DeviationFunction& fn) const
      EXCLUDES(state_mutex_);

  // Blocks until every snapshot submitted so far has been processed.
  void Flush() EXCLUDES(state_mutex_);

  // Stops intake, drains in-flight work, joins the workers. Idempotent;
  // also run by the destructor.
  void Shutdown() EXCLUDES(state_mutex_);

  int64_t processed() const EXCLUDES(state_mutex_);
  const ModelCache& model_cache() const { return model_cache_; }
  // Mutable view for front ends that resolve content hashes themselves
  // (POST /v1/compare); lookups promote entries in the LRU order.
  ModelCache& model_cache() { return model_cache_; }

 private:
  struct Stream {
    core::DeviationCusum cusum;
    // The next four fields are guarded by the owning service's
    // state_mutex_ (a nested struct cannot name the outer instance's
    // mutex in GUARDED_BY); every access happens inside the REQUIRES(
    // state_mutex_) helpers below or under an explicit MutexLock.
    std::deque<Snapshot> pending;
    bool draining = false;         // a drain job owns this stream
    // Published at the end of each Process under state_mutex_, so
    // queries never race the worker that owns the stream.
    StreamStatus status;
    MinedSnapshot last_mined;      // model+index of the latest snapshot
    // Sequence number of the next accepted Ingest; guarded by the
    // service's ingest_mutex_.
    int64_t next_sequence = 0;

    explicit Stream(const core::CusumOptions& cusum_options)
        : cusum(cusum_options) {}
  };

  // Submit and TrySubmitFor share this body: waits for an in-flight slot
  // (at most `timeout`, or indefinitely when nullopt), then queues.
  SubmitResult Enqueue(Snapshot snapshot,
                       std::optional<std::chrono::milliseconds> timeout)
      EXCLUDES(state_mutex_);
  // The stream named `name`, registered first if it is new.
  Stream* FindOrAddStreamLocked(const std::string& name)
      REQUIRES(state_mutex_);
  void DispatchLoop();
  void Route(Snapshot snapshot) EXCLUDES(state_mutex_);
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
  // Built in the constructor, before the pool and the dispatcher start,
  // and never mutated after: every stream's drain job and QueryDeviation
  // read it concurrently without a lock.
  const core::LitsChangeMonitor monitor_;
  ModelCache model_cache_;
  SnapshotQueue queue_;
  std::unique_ptr<common::ThreadPool> pool_;

  // Serializes Ingest: registration, sequencing and queueing happen as one
  // step. Acquired before state_mutex_, never after it.
  common::Mutex ingest_mutex_;
  mutable common::Mutex state_mutex_;
  common::CondVar idle_cv_;
  std::unordered_map<std::string, std::unique_ptr<Stream>> streams_
      GUARDED_BY(state_mutex_);
  // submitted but not yet fully processed
  int64_t in_flight_ GUARDED_BY(state_mutex_) = 0;
  int64_t processed_ GUARDED_BY(state_mutex_) = 0;
  bool shutdown_ GUARDED_BY(state_mutex_) = false;

  common::Mutex sink_mutex_;
  std::function<void(const StreamEvent&)> sink_ GUARDED_BY(sink_mutex_);

  std::thread dispatcher_;
};

}  // namespace focus::serve

#endif  // FOCUS_SERVE_MONITOR_SERVICE_H_
