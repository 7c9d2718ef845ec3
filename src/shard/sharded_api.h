#ifndef FOCUS_SHARD_SHARDED_API_H_
#define FOCUS_SHARD_SHARDED_API_H_

#include <atomic>
#include <string>

#include "net/http_server.h"
#include "net/router.h"
#include "serve/metrics.h"
#include "shard/shard_router.h"

namespace focus::shard {

struct ShardedApiOptions {
  // Which front-end reactor this api instance serves; used to label the
  // reactor's server stats in /metrics (each reactor owns its own api +
  // router so shard calls never serialize across reactors).
  int reactor_index = 0;
};

// The HTTP face of focus_served for every --shards value: binds the API
// routes to a ShardRouter (--shards 0 routes to one in-process worker
// through a LocalShardChannel, --shards N to N forked workers):
//
//   POST /v1/streams/{name}/snapshots   body: focus-txns-v1 text
//        202 {"stream","sequence","content_hash"} | 400 | 429 | 503
//   GET  /v1/streams/{name}/deviation?f=abs|scaled&g=sum|max
//        200 latest status + recomputed deviation | 404
//   POST /v1/compare?left=HASH&right=HASH&f=…&g=…   (params may also be a
//        form-encoded body) — deviation between two previously ingested
//        snapshots via the model caches; 404 when a hash is unknown.
//   GET  /v1/deviation/summary?f=…&g=…   cross-stream aggregate: every
//        stream's latest deviation folded with g in sorted-name order.
//   GET  /metrics        Prometheus text (?format=json for the registry
//        JSON snapshot)
//   GET  /healthz        {"status":"ok"|"draining"}
//
// The front end never parses snapshot bodies — an ingest forwards the raw
// bytes to the owning shard, which parses, hashes, and sequences them.
// Handlers run on the reactor's event loop; the heavy work (mining,
// screening) stays on the workers' MonitorService pools. A shard
// transport failure answers 503 with Retry-After.
class ShardedApi {
 public:
  // `router` and `metrics` must outlive the api; `metrics` may be null.
  ShardedApi(const ShardedApiOptions& options, ShardRouter* router,
             serve::MetricsRegistry* metrics);

  net::Router BuildRouter();

  // Lets GET /metrics fold this reactor's live server stats (labeled with
  // the reactor index) into the shared registry at scrape time.
  void AttachServer(const net::HttpServer* server) { server_ = server; }

  void SetDraining(bool draining) { draining_.store(draining); }

 private:
  net::HttpResponse HandleIngest(const net::HttpRequest& request,
                                 const net::PathParams& params);
  net::HttpResponse HandleDeviation(const net::HttpRequest& request,
                                    const net::PathParams& params);
  net::HttpResponse HandleCompare(const net::HttpRequest& request);
  net::HttpResponse HandleSummary(const net::HttpRequest& request);
  net::HttpResponse HandleMetrics(const net::HttpRequest& request);
  net::HttpResponse HandleHealth();

  net::HttpResponse ShardDownResponse(const std::string& error);
  void CountShardOp(int shard, const char* op);

  const ShardedApiOptions options_;
  ShardRouter* const router_;
  serve::MetricsRegistry* const metrics_;  // may be null
  const net::HttpServer* server_ = nullptr;
  std::atomic<bool> draining_{false};
};

}  // namespace focus::shard

#endif  // FOCUS_SHARD_SHARDED_API_H_
