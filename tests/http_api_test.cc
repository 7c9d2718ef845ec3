// Socket-level integration tests for the network serving stack: a real
// HttpServer on an ephemeral loopback port routing into shard::ShardedApi
// → ShardRouter → LocalShardChannel → one in-process ShardWorker →
// MonitorService, the stack focus_served --shards 0 runs. Run under TSan
// in CI: concurrent clients hammer ingest while the event loop, Ingest
// and the worker pool all interact.

#include <gtest/gtest.h>

#include "common/mutex.h"

#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "core/monitor.h"
#include "datagen/quest_gen.h"
#include "io/data_io.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "serve/metrics.h"
#include "serve/monitor_service.h"
#include "shard/shard_router.h"
#include "shard/shard_worker.h"
#include "shard/sharded_api.h"

namespace focus::serve {
namespace {

data::TransactionDb QuestDb(uint64_t seed, int num_transactions = 300) {
  datagen::QuestParams params;
  params.num_transactions = num_transactions;
  params.num_items = 60;
  params.num_patterns = 100;
  params.avg_pattern_length = 4;
  params.avg_transaction_length = 8;
  params.seed = seed;
  params.pattern_seed = 99;
  return datagen::GenerateQuest(params);
}

std::string Serialize(const data::TransactionDb& db) {
  std::ostringstream out;
  io::SaveTransactionDb(db, out);
  return out.str();
}

// Pulls `"key":"value"` or `"key":number` out of a flat JSON response.
// (The payloads are machine-generated and flat, so this stays honest.)
std::string JsonField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  size_t begin = at + needle.size();
  if (json[begin] == '"') {
    const size_t end = json.find('"', begin + 1);
    return json.substr(begin + 1, end - begin - 1);
  }
  size_t end = begin;
  while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
  return json.substr(begin, end - begin);
}

shard::ShardWorkerOptions WorkerOptions(
    const MonitorServiceOptions& service_options, int ingest_wait_ms) {
  shard::ShardWorkerOptions options;
  options.service = service_options;
  options.ingest_wait_ms = ingest_wait_ms;
  return options;
}

// Boots the whole stack (worker + router + api + server) around one
// reference db, which the worker's service calibrates before the server
// starts.
class ApiStack {
 public:
  explicit ApiStack(MonitorServiceOptions service_options =
                        MonitorServiceOptions(),
                    int ingest_wait_ms = 20,
                    const data::TransactionDb& reference = QuestDb(1))
      : worker_(WorkerOptions(service_options, ingest_wait_ms), reference,
                &metrics_),
        service_(worker_.service()),
        channel_(&worker_),
        router_(std::vector<shard::ShardChannel*>{&channel_}),
        api_(shard::ShardedApiOptions{}, &router_, &metrics_),
        server_(net::HttpServerOptions{}, api_.BuildRouter()) {
    api_.AttachServer(&server_);
    std::string error;
    started_ = server_.Start(&error);
    EXPECT_TRUE(started_) << error;
  }

  ~ApiStack() {
    server_.Stop();
    worker_.Stop();
  }

  net::HttpClient Client(int timeout_ms = 10'000) {
    net::HttpClient client(timeout_ms);
    EXPECT_TRUE(client.Connect("127.0.0.1", server_.port()));
    return client;
  }

  MetricsRegistry metrics_;
  shard::ShardWorker worker_;
  MonitorService& service_;
  shard::LocalShardChannel channel_;
  shard::ShardRouter router_;
  shard::ShardedApi api_;
  net::HttpServer server_;
  bool started_ = false;
};

TEST(HttpApiTest, IngestDeviationCompareRoundtrip) {
  ApiStack stack;
  auto client = stack.Client();

  const std::string snap_a = Serialize(QuestDb(2));
  const std::string snap_b = Serialize(QuestDb(3));

  const auto post_a =
      client.Post("/v1/streams/payments/snapshots", snap_a, "text/plain");
  ASSERT_TRUE(post_a.has_value());
  ASSERT_EQ(post_a->status, 202) << post_a->body;
  EXPECT_EQ(JsonField(post_a->body, "stream"), "payments");
  EXPECT_EQ(JsonField(post_a->body, "sequence"), "0");
  const std::string hash_a = JsonField(post_a->body, "content_hash");
  ASSERT_EQ(hash_a.size(), 16u);

  const auto post_b =
      client.Post("/v1/streams/payments/snapshots", snap_b, "text/plain");
  ASSERT_TRUE(post_b.has_value());
  ASSERT_EQ(post_b->status, 202);
  EXPECT_EQ(JsonField(post_b->body, "sequence"), "1");
  const std::string hash_b = JsonField(post_b->body, "content_hash");
  EXPECT_NE(hash_a, hash_b);

  stack.service_.Flush();

  const auto deviation =
      client.Get("/v1/streams/payments/deviation?f=scaled&g=max");
  ASSERT_TRUE(deviation.has_value());
  ASSERT_EQ(deviation->status, 200) << deviation->body;
  EXPECT_EQ(JsonField(deviation->body, "processed"), "2");
  EXPECT_EQ(JsonField(deviation->body, "seq"), "1");
  EXPECT_EQ(JsonField(deviation->body, "f"), "scaled");
  EXPECT_FALSE(JsonField(deviation->body, "deviation").empty());

  // Compare the two ingested snapshots by content hash — served from the
  // model cache, and symmetric under (abs,sum).
  const auto ab = client.Post(
      "/v1/compare?left=" + hash_a + "&right=" + hash_b + "&f=abs&g=sum", "",
      "text/plain");
  ASSERT_TRUE(ab.has_value());
  ASSERT_EQ(ab->status, 200) << ab->body;
  const std::string delta_ab = JsonField(ab->body, "deviation");
  EXPECT_FALSE(delta_ab.empty());

  // Same parameters via a form body instead of the query string.
  const auto ba = client.Post(
      "/v1/compare", "left=" + hash_b + "&right=" + hash_a + "&f=abs&g=sum",
      "application/x-www-form-urlencoded");
  ASSERT_TRUE(ba.has_value());
  ASSERT_EQ(ba->status, 200) << ba->body;
  EXPECT_EQ(JsonField(ba->body, "deviation"), delta_ab);

  // A snapshot compared against itself deviates by zero.
  const auto aa = client.Post(
      "/v1/compare?left=" + hash_a + "&right=" + hash_a, "", "text/plain");
  ASSERT_TRUE(aa.has_value());
  EXPECT_EQ(JsonField(aa->body, "deviation"), "0");
}

TEST(HttpApiTest, RejectsBadInputsWithPreciseStatuses) {
  ApiStack stack;
  auto client = stack.Client();

  const auto bad_body = client.Post("/v1/streams/s/snapshots",
                                    "this is not a snapshot", "text/plain");
  ASSERT_TRUE(bad_body.has_value());
  EXPECT_EQ(bad_body->status, 400);

  const auto empty_body =
      client.Post("/v1/streams/s/snapshots", "", "text/plain");
  ASSERT_TRUE(empty_body.has_value());
  EXPECT_EQ(empty_body->status, 400);

  // Bodies that load but cannot be screened against the 60-item
  // reference: no transactions, and a dense snapshot over 120 items from
  // another process, which would pass the delta* screen into stage 2.
  const auto no_transactions = client.Post(
      "/v1/streams/s/snapshots", "focus-txns-v1\n60 0\n", "text/plain");
  ASSERT_TRUE(no_transactions.has_value());
  EXPECT_EQ(no_transactions->status, 400);
  EXPECT_NE(no_transactions->body.find("snapshot has no transactions"),
            std::string::npos)
      << no_transactions->body;
  datagen::QuestParams wide;
  wide.num_transactions = 300;
  wide.num_items = 120;
  wide.num_patterns = 10;
  wide.avg_pattern_length = 6;
  wide.avg_transaction_length = 16;
  wide.seed = 4;
  wide.pattern_seed = 7;
  const auto other_universe =
      client.Post("/v1/streams/s/snapshots",
                  Serialize(datagen::GenerateQuest(wide)), "text/plain");
  ASSERT_TRUE(other_universe.has_value());
  EXPECT_EQ(other_universe->status, 400);
  EXPECT_NE(other_universe->body.find(
                "snapshot declares 120 items; the reference has 60"),
            std::string::npos)
      << other_universe->body;
  stack.service_.Flush();
  EXPECT_FALSE(stack.service_.GetStreamStatus("s").has_value());
  // The loader's rejection and these two.
  EXPECT_EQ(stack.metrics_.GetCounter("ingest_rejected").Value(), 3);

  const auto bad_name = client.Post("/v1/streams/bad%20name/snapshots",
                                    Serialize(QuestDb(2)), "text/plain");
  ASSERT_TRUE(bad_name.has_value());
  EXPECT_EQ(bad_name->status, 400);

  const auto unknown_stream = client.Get("/v1/streams/ghost/deviation");
  ASSERT_TRUE(unknown_stream.has_value());
  EXPECT_EQ(unknown_stream->status, 404);

  const auto bad_fn = client.Get("/v1/streams/ghost/deviation?f=cubed");
  ASSERT_TRUE(bad_fn.has_value());
  EXPECT_EQ(bad_fn->status, 400);

  const auto bad_hash =
      client.Post("/v1/compare?left=zzzz&right=0", "", "text/plain");
  ASSERT_TRUE(bad_hash.has_value());
  EXPECT_EQ(bad_hash->status, 400);

  const auto unknown_hash = client.Post(
      "/v1/compare?left=0123456789abcdef&right=fedcba9876543210", "",
      "text/plain");
  ASSERT_TRUE(unknown_hash.has_value());
  EXPECT_EQ(unknown_hash->status, 404);

  const auto wrong_method = client.Get("/v1/compare");
  ASSERT_TRUE(wrong_method.has_value());
  EXPECT_EQ(wrong_method->status, 405);
}

TEST(HttpApiTest, MetricsAndHealthEndpoints) {
  ApiStack stack;
  auto client = stack.Client();
  ASSERT_EQ(client
                .Post("/v1/streams/m/snapshots", Serialize(QuestDb(2)),
                      "text/plain")
                ->status,
            202);
  stack.service_.Flush();

  const auto prom = client.Get("/metrics");
  ASSERT_TRUE(prom.has_value());
  ASSERT_EQ(prom->status, 200);
  EXPECT_NE(prom->headers.at("content-type").find("text/plain"),
            std::string::npos);
  EXPECT_NE(prom->body.find("# TYPE focus_snapshots_processed_total counter"),
            std::string::npos);
  EXPECT_NE(prom->body.find("focus_snapshots_processed_total 1"),
            std::string::npos);
  EXPECT_NE(prom->body.find("focus_inspect_latency_ms_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(prom->body.find("focus_http_requests_total"), std::string::npos);
  EXPECT_NE(prom->body.find("focus_http_connections_refused_total"),
            std::string::npos);

  const auto json = client.Get("/metrics?format=json");
  ASSERT_TRUE(json.has_value());
  EXPECT_NE(json->body.find("\"counters\""), std::string::npos);

  const auto health = client.Get("/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(JsonField(health->body, "status"), "ok");

  stack.api_.SetDraining(true);
  const auto draining = client.Get("/healthz");
  ASSERT_TRUE(draining.has_value());
  EXPECT_EQ(JsonField(draining->body, "status"), "draining");
}

// The contract the ISSUE pins: ≥8 concurrent connections, every accepted
// snapshot processed exactly once (no losses, no duplicates).
TEST(HttpApiTest, ConcurrentIngestLosesNothing) {
  ApiStack stack;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 6;

  common::Mutex mu;
  std::set<std::string> sequences;  // "<stream>#<seq>" pairs seen in 202s
  std::atomic<int> accepted{0}, rejected{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      auto client = stack.Client();
      // Two streams shared across threads: sequence assignment itself is
      // contended, not just the queue.
      const std::string stream = "s" + std::to_string(t % 2);
      for (int i = 0; i < kPerThread; ++i) {
        const std::string body =
            Serialize(QuestDb(100 + t * kPerThread + i, 120));
        const auto response = client.Post(
            "/v1/streams/" + stream + "/snapshots", body, "text/plain");
        ASSERT_TRUE(response.has_value());
        if (response->status == 202) {
          accepted.fetch_add(1);
          common::MutexLock lock(&mu);
          const bool fresh =
              sequences
                  .insert(stream + "#" + JsonField(response->body, "sequence"))
                  .second;
          EXPECT_TRUE(fresh) << "duplicate sequence handed out";
        } else {
          EXPECT_EQ(response->status, 429);
          rejected.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  stack.service_.Flush();
  // Every 202 corresponds to exactly one processed snapshot; nothing is
  // lost in the server, the api, or the queue, and nothing runs twice.
  EXPECT_EQ(stack.service_.processed(), accepted.load());
  EXPECT_EQ(static_cast<int>(sequences.size()), accepted.load());
  EXPECT_EQ(accepted.load() + rejected.load(), kThreads * kPerThread);
  // Per-stream sequences are dense 0..n-1 (the 429 path never burns one).
  for (const std::string stream : {"s0", "s1"}) {
    int count = 0;
    while (sequences.count(stream + "#" + std::to_string(count)) > 0) ++count;
    for (const auto& entry : sequences) {
      if (entry.rfind(stream + "#", 0) == 0) {
        EXPECT_LT(std::stoi(entry.substr(stream.size() + 1)), count)
            << "hole in " << stream << " sequence numbering";
      }
    }
  }
}

// Streams register in O(1): the service built its one reference monitor
// before the server started, so a new stream's first POST only parses,
// hashes and queues. With a reference far larger than the posts, each
// first POST must answer in well under the time one reference build
// takes, timed here as well so a sanitizer build slows both sides alike.
TEST(HttpApiTest, FirstPostOfNewStreamsNeverWaitsForAReferenceBuild) {
  MonitorServiceOptions service_options;
  // Screen every post out, so their background processing stays a small
  // mine and never runs stage 2 against the large reference.
  service_options.monitor.alert_factor = 1e9;
  const data::TransactionDb reference = QuestDb(1, 50'000);
  const common::Timer build_timer;
  const core::LitsChangeMonitor standalone(reference, service_options.monitor);
  const double build_ms = build_timer.Millis();

  ApiStack stack(service_options, /*ingest_wait_ms=*/20, reference);
  auto client = stack.Client();
  const std::string body = Serialize(QuestDb(2, 100));
  for (int s = 0; s < 8; ++s) {
    const std::string stream = "fresh-" + std::to_string(s);
    const common::Timer post_timer;
    const auto response =
        client.Post("/v1/streams/" + stream + "/snapshots", body, "text/plain");
    const double post_ms = post_timer.Millis();
    ASSERT_TRUE(response.has_value());
    ASSERT_EQ(response->status, 202) << response->body;
    EXPECT_EQ(JsonField(response->body, "sequence"), "0");
    EXPECT_LT(post_ms, build_ms / 2)
        << stream << ": first POST took " << post_ms
        << " ms; one reference build takes " << build_ms << " ms";
  }
  stack.service_.Flush();
  EXPECT_EQ(stack.service_.processed(), 8);
}

// Saturate a tiny service so the bounded ingest wait expires: clients must
// see 429 + Retry-After, and accepted work still all completes.
TEST(HttpApiTest, BackpressureAnswers429WithRetryAfter) {
  MonitorServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.queue_capacity = 1;  // in-flight bound: 1
  ApiStack stack(service_options, /*ingest_wait_ms=*/1);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 4;
  std::atomic<int> accepted{0}, overloaded{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      auto client = stack.Client();
      for (int i = 0; i < kPerThread; ++i) {
        // Distinct snapshots: every accepted one is a cache miss that
        // must be mined, keeping the single worker busy.
        const std::string body =
            Serialize(QuestDb(500 + t * kPerThread + i, 200));
        const auto response =
            client.Post("/v1/streams/hot/snapshots", body, "text/plain");
        ASSERT_TRUE(response.has_value());
        if (response->status == 202) {
          accepted.fetch_add(1);
        } else {
          ASSERT_EQ(response->status, 429) << response->body;
          EXPECT_EQ(response->headers.at("retry-after"), "1");
          overloaded.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_GT(overloaded.load(), 0) << "saturation never produced a 429";
  EXPECT_GT(accepted.load(), 0);
  stack.service_.Flush();
  EXPECT_EQ(stack.service_.processed(), accepted.load());
  EXPECT_EQ(stack.metrics_.GetCounter("snapshots_shed").Value(),
            overloaded.load());
}

TEST(HttpApiTest, DrainRefusesNewConnectionsAndFinishesWork) {
  ApiStack stack;
  auto client = stack.Client();
  ASSERT_EQ(client
                .Post("/v1/streams/d/snapshots", Serialize(QuestDb(7)),
                      "text/plain")
                ->status,
            202);

  stack.api_.SetDraining(true);
  stack.server_.BeginDrain();
  EXPECT_TRUE(stack.server_.WaitDrained(2000));
  stack.service_.Flush();
  EXPECT_EQ(stack.service_.processed(), 1);
  EXPECT_EQ(stack.server_.stats().open_connections, 0);
}

}  // namespace
}  // namespace focus::serve
