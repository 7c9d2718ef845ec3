#ifndef FOCUS_SHARD_SHARD_WORKER_H_
#define FOCUS_SHARD_SHARD_WORKER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "data/transaction_db.h"
#include "serve/metrics.h"
#include "serve/monitor_service.h"
#include "shard/wire.h"
#include "shard/wire_server.h"

namespace focus::shard {

struct ShardWorkerOptions {
  uint32_t shard_index = 0;
  serve::MonitorServiceOptions service;
  // How long kSubmitSnapshot waits for ingest backpressure to clear
  // before answering 429 (focus_served --ingest-wait-ms). Through
  // HandleFrameAsync the wait holds one of the worker's ingest threads;
  // through HandleFrame it holds the caller (a forked worker's wire loop).
  int ingest_wait_ms = 20;
};

// One shard: a full MonitorService + ModelCache owning a subset of the
// streams, all screened against the one reference the service calibrated
// at construction, exposed through the wire protocol. HandleFrame() is
// the entire behavior — Serve() merely runs it behind a WireServer on a
// Unix socket, which is how forked worker processes host it;
// focus_served --shards 0, the law tests and the in-process bench call it
// directly through a LocalShardChannel (same code, no sockets), which
// submits snapshots through HandleFrameAsync.
//
// Sequence numbers come from MonitorService::Ingest: the worker is the
// single owner of each of its streams, so numbers stay dense no matter how
// many front-end reactors or ingest threads forward ingests.
class ShardWorker {
 public:
  // Hands `reference` to the MonitorService, which mines and calibrates
  // it here, before the worker serves a frame; the worker keeps no pointer
  // to it. `metrics` may be null; it must outlive the worker.
  ShardWorker(const ShardWorkerOptions& options,
              const data::TransactionDb& reference,
              serve::MetricsRegistry* metrics);

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  // Dispatches one request frame to a response frame. Thread-safe.
  Frame HandleFrame(const Frame& request);

  // HandleFrame, with the response handed to `done`. A submit is parsed,
  // validated, hashed and admitted on the worker's ingest threads (half
  // as many as the service's pool has, at least one, started by the
  // first submit), so its
  // --ingest-wait-ms wait holds neither the caller nor a thread of the
  // service's drain pool, which must stay free to free the slot the wait
  // is for. Any other frame is answered on the caller's thread before
  // this returns. After Stop a submit answers 503.
  void HandleFrameAsync(Frame request, std::function<void(Frame)> done)
      EXCLUDES(ingest_mutex_);

  // Starts a WireServer for this worker on `server_options.unix_path`.
  bool Serve(const WireServerOptions& server_options,
             std::string* error = nullptr);

  // Graceful drain of the serving socket + the monitor service: stop
  // accepting, finish in-flight frames, flush the ingest queue. Stop also
  // finishes every submit handed to HandleFrameAsync before it.
  void BeginDrain();
  bool WaitDrained(int timeout_ms);
  void Stop() EXCLUDES(ingest_mutex_);

  serve::MonitorService& service() { return service_; }

 private:
  Frame HandlePing(const Frame& request);
  Frame HandleSubmit(const Frame& request);
  Frame HandleDeviationQuery(const Frame& request);
  Frame HandleCompare(const Frame& request);
  Frame HandleModelRegions(const Frame& request);
  Frame HandleExtendRegions(const Frame& request);
  Frame HandleStreamPartials(const Frame& request);

  const ShardWorkerOptions options_;
  serve::MetricsRegistry* const metrics_;  // may be null
  serve::MonitorService service_;
  std::unique_ptr<WireServer> server_;
  std::atomic<bool> draining_{false};
  // HandleFrameAsync's submits; null until the first and after Stop.
  // Declared after service_, so no ingest task outlives the service it
  // admits into.
  common::Mutex ingest_mutex_;
  std::unique_ptr<common::ThreadPool> ingest_pool_ GUARDED_BY(ingest_mutex_);
  bool ingest_stopped_ GUARDED_BY(ingest_mutex_) = false;
};

}  // namespace focus::shard

#endif  // FOCUS_SHARD_SHARD_WORKER_H_
