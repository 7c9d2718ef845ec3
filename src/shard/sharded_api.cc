#include "shard/sharded_api.h"

#include <memory>
#include <optional>
#include <utility>

#include "serve/api_util.h"

namespace focus::shard {

using serve::FgChoice;
using serve::FgJson;
using serve::HashHex;
using serve::JsonEscape;
using serve::JsonNumber;
using serve::ParseHashHex;
using serve::StatusJson;

namespace {

// Adds the one-second Retry-After that every 429 and 503 carries.
net::HttpResponse RetryAfter(net::HttpResponse response) {
  response.headers.emplace_back("retry-after", "1");
  return response;
}

net::HttpResponse UnknownFunctionResponse() {
  return net::ErrorResponse(
      400, "unknown deviation function; use f=abs|scaled and g=sum|max");
}

// 503 + Retry-After for a shard transport failure, counted in `metrics`
// (may be null).
net::HttpResponse ShardDownResponse(serve::MetricsRegistry* metrics,
                                    const std::string& error) {
  if (metrics != nullptr) {
    metrics->GetCounter("shard_transport_errors").Increment();
  }
  return RetryAfter(net::ErrorResponse(503, "shard unavailable: " + error));
}

// The reply to an ingest of `name` that the owning shard answered with
// `status`, `result` and `error`.
net::HttpResponse IngestResponse(const std::string& name,
                                 ShardRouter::Status status,
                                 const SubmitResultBody& result,
                                 const std::string& error,
                                 serve::MetricsRegistry* metrics) {
  if (status == ShardRouter::Status::kShardDown) {
    return ShardDownResponse(metrics, error);
  }
  switch (result.status) {
    case 202:
      break;
    case 429:
      return RetryAfter(net::ErrorResponse(429, result.error));
    case 503:
      return RetryAfter(net::ErrorResponse(503, result.error));
    default:
      return net::ErrorResponse(result.status, result.error);
  }
  net::HttpResponse response;
  response.status = 202;
  response.body = "{\"stream\":\"" + JsonEscape(name) + "\"";
  response.body += ",\"sequence\":" + std::to_string(result.sequence);
  response.body +=
      ",\"content_hash\":\"" + HashHex(result.content_hash) + "\"}\n";
  return response;
}

}  // namespace

ShardedApi::ShardedApi(const ShardedApiOptions& options, ShardRouter* router,
                       serve::MetricsRegistry* metrics)
    : options_(options), router_(router), metrics_(metrics) {}

void ShardedApi::CountShardOp(int shard, const char* op) {
  if (metrics_ == nullptr) return;
  metrics_
      ->GetCounter(std::string(op) + "{shard=\"" + std::to_string(shard) +
                   "\"}")
      .Increment();
}

net::Router ShardedApi::BuildRouter() {
  net::Router router;
  router.Handle("POST", "/v1/streams/{name}/snapshots",
                [this](const net::HttpRequest& request,
                       const net::PathParams& params) {
                  return HandleIngest(request, params);
                });
  router.Handle("GET", "/v1/streams/{name}/deviation",
                [this](const net::HttpRequest& request,
                       const net::PathParams& params) {
                  return HandleDeviation(request, params);
                });
  router.Handle("POST", "/v1/compare",
                [this](const net::HttpRequest& request,
                       const net::PathParams&) {
                  return HandleCompare(request);
                });
  router.Handle("GET", "/v1/deviation/summary",
                [this](const net::HttpRequest& request,
                       const net::PathParams&) {
                  return HandleSummary(request);
                });
  router.Handle("GET", "/metrics",
                [this](const net::HttpRequest& request,
                       const net::PathParams&) {
                  return HandleMetrics(request);
                });
  router.Handle("GET", "/healthz",
                [this](const net::HttpRequest&, const net::PathParams&) {
                  return HandleHealth();
                });
  return router;
}

net::HttpResponse ShardedApi::HandleIngest(const net::HttpRequest& request,
                                           const net::PathParams& params) {
  const std::string& name = params.at("name");
  if (!serve::ValidStreamName(name)) {
    return net::ErrorResponse(400, "invalid stream name");
  }
  if (request.body.empty()) {
    return net::ErrorResponse(400, "empty snapshot body");
  }
  // The body forwards verbatim: parsing, hashing, and sequencing all
  // happen on the owning shard (the single owner of the stream), and the
  // reply goes out when the shard answers, on whichever thread that is.
  // The loop serves other connections meanwhile.
  const int shard = router_->ShardFor(name);
  CountShardOp(shard, "shard_ingests");
  auto pending = std::make_shared<net::PendingResponse>();
  router_->SubmitAsync(
      name, "http", request.body,
      [pending, name, metrics = metrics_](ShardRouter::Status status,
                                          const SubmitResultBody& result,
                                          const std::string& error) {
        pending->Send(IngestResponse(name, status, result, error, metrics));
      });
  return net::HttpResponse::Later(std::move(pending));
}

net::HttpResponse ShardedApi::HandleDeviation(const net::HttpRequest& request,
                                              const net::PathParams& params) {
  const std::optional<FgChoice> fg = FgChoice::FromParams(request.query);
  if (!fg.has_value()) return UnknownFunctionResponse();
  const std::string& name = params.at("name");
  const int shard = router_->ShardFor(name);
  CountShardOp(shard, "shard_deviation_queries");
  DeviationResultBody result;
  std::string error;
  switch (router_->QueryDeviation(name, *fg, &result, &error)) {
    case ShardRouter::Status::kShardDown:
      return ShardDownResponse(metrics_, error);
    case ShardRouter::Status::kNotFound:
      return net::ErrorResponse(404, "unknown stream");
    case ShardRouter::Status::kOk:
      break;
  }
  net::HttpResponse response;
  response.body = "{\"stream\":\"" + JsonEscape(name) + "\"";
  response.body += ",";
  response.body += FgJson(*fg);
  response.body += ",";
  response.body += StatusJson(result.status);
  if (result.has_deviation != 0) {
    response.body += ",\"deviation\":" + JsonNumber(result.deviation);
  }
  response.body += "}\n";
  return response;
}

net::HttpResponse ShardedApi::HandleCompare(const net::HttpRequest& request) {
  std::map<std::string, std::string> params = request.query;
  if (!request.body.empty()) {
    for (auto& [key, value] : net::ParseQueryString(request.body)) {
      params[key] = value;
    }
  }
  const std::optional<FgChoice> fg = FgChoice::FromParams(params);
  if (!fg.has_value()) return UnknownFunctionResponse();
  uint64_t left_hash = 0, right_hash = 0;
  const auto left_it = params.find("left");
  const auto right_it = params.find("right");
  if (left_it == params.end() || right_it == params.end() ||
      !ParseHashHex(left_it->second, &left_hash) ||
      !ParseHashHex(right_it->second, &right_hash)) {
    return net::ErrorResponse(
        400, "compare needs left=<hex hash> and right=<hex hash> (the "
             "content_hash values returned by snapshot ingest)");
  }
  if (metrics_ != nullptr) {
    metrics_->GetCounter("shard_compares").Increment();
  }
  double deviation = 0.0;
  std::vector<uint64_t> missing;
  std::string error;
  switch (router_->Compare(left_hash, right_hash, *fg, &deviation, &missing,
                           &error)) {
    case ShardRouter::Status::kShardDown:
      return ShardDownResponse(metrics_, error);
    case ShardRouter::Status::kNotFound: {
      std::string rendered;
      for (uint64_t hash : missing) {
        if (!rendered.empty()) rendered += ", ";
        rendered += HashHex(hash);
      }
      return net::ErrorResponse(
          404, "snapshot hash not in any shard's model cache (evicted, "
               "still queued, or never ingested), or block-backed by "
               "--spool --ooc and so without the transactions a compare "
               "scans: " +
                   rendered);
    }
    case ShardRouter::Status::kOk:
      break;
  }
  net::HttpResponse response;
  response.body = "{\"left\":\"" + left_it->second + "\"";
  response.body += ",\"right\":\"" + right_it->second + "\"";
  response.body += ",";
  response.body += FgJson(*fg);
  response.body += ",\"deviation\":" + JsonNumber(deviation) + "}\n";
  return response;
}

net::HttpResponse ShardedApi::HandleSummary(const net::HttpRequest& request) {
  const std::optional<FgChoice> fg = FgChoice::FromParams(request.query);
  if (!fg.has_value()) return UnknownFunctionResponse();
  std::vector<serve::SummaryEntry> entries;
  serve::SummaryResult result;
  std::string error;
  if (router_->Summary(*fg, &entries, &result, &error) ==
      ShardRouter::Status::kShardDown) {
    return ShardDownResponse(metrics_, error);
  }
  net::HttpResponse response;
  response.body = serve::SummaryJson(*fg, entries, result);
  return response;
}

net::HttpResponse ShardedApi::HandleMetrics(const net::HttpRequest& request) {
  if (metrics_ == nullptr) {
    return net::ErrorResponse(404, "metrics are disabled");
  }
  if (server_ != nullptr) {
    // Per-reactor labels keep concurrent reactors from fighting over one
    // counter (each folds only its own server's stats).
    const std::string label =
        "{reactor=\"" + std::to_string(options_.reactor_index) + "\"}";
    const net::ServerStats stats = server_->stats();
    metrics_->GetGauge("http_open_connections" + label)
        .Set(static_cast<double>(stats.open_connections));
    auto& requests = metrics_->GetCounter("http_requests" + label);
    requests.Increment(stats.requests_handled - requests.Value());
    auto& parse_errors = metrics_->GetCounter("http_parse_errors" + label);
    parse_errors.Increment(stats.parse_errors - parse_errors.Value());
    auto& refused = metrics_->GetCounter("http_connections_refused" + label);
    refused.Increment(stats.connections_refused - refused.Value());
  }
  net::HttpResponse response;
  const auto format = request.query.find("format");
  if (format != request.query.end() && format->second == "json") {
    response.body = metrics_->ToJson() + "\n";
    return response;
  }
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = metrics_->ToPrometheusText();
  return response;
}

net::HttpResponse ShardedApi::HandleHealth() {
  net::HttpResponse response;
  response.body = draining_.load() ? "{\"status\":\"draining\"}\n"
                                   : "{\"status\":\"ok\"}\n";
  return response;
}

bool StartReactor(int index, std::vector<ShardChannel*> channels,
                  serve::MetricsRegistry* metrics,
                  const net::HttpServerOptions& options, Reactor* reactor,
                  std::string* error) {
  reactor->router = std::make_unique<ShardRouter>(std::move(channels));
  ShardedApiOptions api_options;
  api_options.reactor_index = index;
  reactor->api = std::make_unique<ShardedApi>(api_options,
                                              reactor->router.get(), metrics);
  reactor->server =
      std::make_unique<net::HttpServer>(options, reactor->api->BuildRouter());
  reactor->api->AttachServer(reactor->server.get());
  return reactor->server->Start(error);
}

}  // namespace focus::shard
