// Network serving throughput: loopback HTTP clients driving the full
// stack through focus_served's front end, built the way the daemon builds
// its own (shard::StartReactor): max(N, 1) SO_REUSEPORT reactors →
// ShardedApi → ShardRouter → max(N, 1) in-process ShardWorkers (full wire
// codec per call), for --shards=N (default 0, the single-node deployment:
// one of each). At --shards 0 an ingest's reply is deferred: the worker
// parses, hashes and admits the snapshot on its ingest threads while the
// reactor serves. At --shards N every shard call blocks its reactor until
// the worker answers, as ShardClient's do in focus_served --shards N.
// Two request mixes:
//   mixed  ingest, deviation and compare in a 2:3:1 mix, 8 to 128 clients;
//   query  4 clients, 2% ingests and the rest deviation, compare, summary,
//          healthz and metrics in equal shares over ingested snapshots,
//          like perfbench's query_mix.
// Emits JSON lines:
//   {"bench":"net_throughput","config":…,"clients":N,"shards":…,
//    "requests":…,"seconds":…,"requests_per_sec":…,…}

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "datagen/quest_gen.h"
#include "io/data_io.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "serve/metrics.h"
#include "serve/monitor_service.h"
#include "shard/shard_channel.h"
#include "shard/shard_router.h"
#include "shard/shard_worker.h"
#include "shard/sharded_api.h"

namespace focus {
namespace {

data::TransactionDb SnapshotDb(int64_t num_transactions, uint64_t seed) {
  datagen::QuestParams params = bench::PaperQuestParams(
      num_transactions, /*num_patterns=*/500, /*pattern_length=*/4, seed);
  params.pattern_seed = 99;
  return datagen::GenerateQuest(params);
}

std::string Serialize(const data::TransactionDb& db) {
  std::ostringstream out;
  io::SaveTransactionDb(db, out);
  return out.str();
}

std::string JsonField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  const size_t begin = at + needle.size();
  return json.substr(begin, json.find('"', begin) - begin);
}

serve::MonitorServiceOptions ServiceConfig() {
  serve::MonitorServiceOptions options;
  options.monitor.apriori.min_support = 0.02;
  options.monitor.apriori.max_itemset_size = 2;
  options.monitor.calibration_replicates = 3;
  options.monitor.significance.num_replicates = 5;
  options.num_threads = 4;
  options.queue_capacity = 32;
  return options;
}

// A shard reached the way focus_served --shards N reaches one: CallAsync
// is ShardChannel's default, which waits in Call, as ShardClient's does.
// Only the kernel socket hop to a forked worker is elided.
class BlockingChannel : public shard::ShardChannel {
 public:
  explicit BlockingChannel(shard::ShardWorker* worker) : local_(worker) {}

  bool Call(shard::MessageType type, const std::string& payload,
            shard::Frame* response, std::string* error) override {
    return local_.Call(type, payload, response, error);
  }

 private:
  shard::LocalShardChannel local_;
};

enum class Kind { kIngest, kDeviation, kCompare, kSummary, kHealthz, kMetrics };

// A connection's requests repeat this cycle.
using Mix = std::vector<Kind>;

Mix MixedMix() {
  return {Kind::kIngest, Kind::kDeviation, Kind::kDeviation,
          Kind::kIngest, Kind::kDeviation, Kind::kCompare};
}

// One ingest per 50 requests; the 49 reads cycle through the read routes.
Mix QueryMix() {
  const Kind reads[] = {Kind::kDeviation, Kind::kCompare, Kind::kSummary,
                        Kind::kHealthz, Kind::kMetrics};
  Mix mix = {Kind::kIngest};
  for (int i = 0; i < 49; ++i) mix.push_back(reads[i % 5]);
  return mix;
}

struct DriveCounts {
  int64_t accepted = 0;
  int64_t overloaded = 0;
  int64_t reads = 0;  // deviation, summary, healthz and metrics
  int64_t compares = 0;
  double seconds = 0.0;
};

// Drives `clients` concurrent keep-alive connections against the server
// at `port`, each issuing `mix` in turn; every shard count sees the
// identical byte stream. A compare names the last two hashes its
// connection ingested, starting from two of `seed_hashes` when given.
// `flush` runs inside the measured window so the figure includes draining
// the ingest queue, as a real deployment would.
DriveCounts DriveClients(uint16_t port, int clients, int requests_per_client,
                         const Mix& mix,
                         const std::vector<std::string>& bodies,
                         const std::vector<std::string>& seed_hashes,
                         const std::function<void()>& flush) {
  std::atomic<int64_t> accepted{0}, overloaded{0}, reads{0}, compares{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c]() {
      net::HttpClient client;
      if (!client.Connect("127.0.0.1", port)) return;
      const std::string stream = "s" + std::to_string(c % 4);
      std::string left, right;  // content hashes seen on this connection
      if (!seed_hashes.empty()) {
        left = seed_hashes[c % seed_hashes.size()];
        right = seed_hashes[(c + 1) % seed_hashes.size()];
      }
      const auto read = [&](const std::string& target) {
        if (!client.Get(target).has_value()) return false;
        reads.fetch_add(1);
        return true;
      };
      for (int i = 0; i < requests_per_client; ++i) {
        switch (mix[i % mix.size()]) {
          case Kind::kIngest: {
            const auto response = client.Post(
                "/v1/streams/" + stream + "/snapshots",
                bodies[(c + i) % bodies.size()], "text/plain");
            if (!response.has_value()) return;
            if (response->status == 202) {
              accepted.fetch_add(1);
              left = right;
              right = JsonField(response->body, "content_hash");
            } else {
              overloaded.fetch_add(1);
            }
            break;
          }
          case Kind::kCompare: {  // two previously ingested snapshots
            if (left.empty() || right.empty()) break;
            const auto response = client.Post(
                "/v1/compare?left=" + left + "&right=" + right, "",
                "text/plain");
            if (!response.has_value()) return;
            compares.fetch_add(1);
            break;
          }
          case Kind::kDeviation:
            if (!read("/v1/streams/" + stream + "/deviation")) return;
            break;
          case Kind::kSummary:
            if (!read("/v1/deviation/summary")) return;
            break;
          case Kind::kHealthz:
            if (!read("/healthz")) return;
            break;
          case Kind::kMetrics:
            if (!read("/metrics")) return;
            break;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  flush();
  DriveCounts counts;
  counts.accepted = accepted.load();
  counts.overloaded = overloaded.load();
  counts.reads = reads.load();
  counts.compares = compares.load();
  counts.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return counts;
}

void EmitLine(const char* label, int clients, int shards, int64_t total,
              int64_t snapshot_size, const DriveCounts& counts,
              int64_t processed) {
  // host_cpus qualifies the scaling numbers: reactors and shard workers
  // only run concurrently when the host has cores to put them on, so a
  // sharded figure from a 1-cpu container measures protocol overhead
  // (parity with the single loop), not scale-out.
  char line[512];
  std::snprintf(
      line, sizeof(line),
      "{\"bench\":\"net_throughput\",\"config\":\"%s\",\"clients\":%d,"
      "\"shards\":%d,\"host_cpus\":%u,\"build_type\":\"%s\","
      "\"requests\":%lld,\"snapshot_transactions\":%lld,"
      "\"seconds\":%.4f,\"requests_per_sec\":%.2f,\"ingest_accepted\":%lld,"
      "\"ingest_overloaded\":%lld,\"reads\":%lld,"
      "\"compares\":%lld,\"snapshots_processed\":%lld}",
      label, clients, shards, std::thread::hardware_concurrency(),
      FOCUS_BUILD_TYPE, static_cast<long long>(total),
      static_cast<long long>(snapshot_size), counts.seconds,
      total / counts.seconds, static_cast<long long>(counts.accepted),
      static_cast<long long>(counts.overloaded),
      static_cast<long long>(counts.reads),
      static_cast<long long>(counts.compares),
      static_cast<long long>(processed));
  bench::EmitBenchJson(line);
}

// Pre-serialize the snapshot pool so generation cost stays out of the
// measured window; a small pool keeps the cache-hit mix realistic.
std::vector<std::string> SnapshotPool(int unique_snapshots,
                                      int64_t snapshot_size) {
  std::vector<std::string> bodies;
  bodies.reserve(unique_snapshots);
  for (int i = 0; i < unique_snapshots; ++i) {
    bodies.push_back(Serialize(SnapshotDb(snapshot_size, 2000 + i)));
  }
  return bodies;
}

// One SO_REUSEPORT reactor per worker, each running its own ShardedApi +
// ShardRouter over in-process ShardWorkers (the law tests pin that every
// shard count answers bit-identically). Every call still encodes and
// decodes full wire frames, so the protocol cost is measured. --shards 0
// reaches its one worker through a LocalShardChannel, as focus_served
// does; --shards N reaches each through a BlockingChannel. Each worker
// owns a full MonitorService, as in a real deployment. With
// `seed_pool`, the snapshot pool is ingested first, untimed, so compares
// and reads find processed snapshots from the first request on.
void RunShardedConfig(const char* label, int clients, int requests_per_client,
                      const Mix& mix, bool seed_pool, int64_t snapshot_size,
                      int unique_snapshots, int num_shards) {
  serve::MetricsRegistry metrics;
  const data::TransactionDb reference = SnapshotDb(snapshot_size, 1000);

  const int num_workers = std::max(num_shards, 1);
  std::vector<std::unique_ptr<shard::ShardWorker>> workers;
  std::vector<std::unique_ptr<shard::ShardChannel>> channels;
  std::vector<shard::ShardChannel*> channel_ptrs;
  for (int s = 0; s < num_workers; ++s) {
    shard::ShardWorkerOptions worker_options;
    worker_options.shard_index = static_cast<uint32_t>(s);
    worker_options.service = ServiceConfig();
    workers.push_back(std::make_unique<shard::ShardWorker>(
        worker_options, reference, &metrics));
    if (num_shards > 0) {
      channels.push_back(
          std::make_unique<BlockingChannel>(workers.back().get()));
    } else {
      channels.push_back(
          std::make_unique<shard::LocalShardChannel>(workers.back().get()));
    }
    channel_ptrs.push_back(channels.back().get());
  }

  std::vector<shard::Reactor> reactors(static_cast<size_t>(num_workers));
  uint16_t port = 0;
  for (size_t r = 0; r < reactors.size(); ++r) {
    net::HttpServerOptions server_options;
    server_options.port = port;
    server_options.reuse_port = reactors.size() > 1;
    std::string error;
    if (!shard::StartReactor(static_cast<int>(r), channel_ptrs, &metrics,
                             server_options, &reactors[r], &error)) {
      std::fprintf(stderr, "net_throughput: cannot start reactor %zu: %s\n",
                   r, error.c_str());
      return;
    }
    port = reactors[r].server->port();
  }
  const auto flush = [&]() {
    for (auto& worker : workers) worker->service().Flush();
  };

  const std::vector<std::string> bodies =
      SnapshotPool(unique_snapshots, snapshot_size);
  std::vector<std::string> seed_hashes;
  if (seed_pool) {
    net::HttpClient client;
    if (!client.Connect("127.0.0.1", port)) return;
    for (size_t i = 0; i < bodies.size(); ++i) {
      const auto response = client.Post(
          "/v1/streams/s" + std::to_string(i % 4) + "/snapshots", bodies[i],
          "text/plain");
      if (!response.has_value() || response->status != 202) return;
      seed_hashes.push_back(JsonField(response->body, "content_hash"));
    }
    flush();
  }
  int64_t untimed = 0;
  for (auto& reactor : reactors) {
    untimed += reactor.server->stats().requests_handled;
  }
  const DriveCounts counts = DriveClients(
      port, clients, requests_per_client, mix, bodies, seed_hashes, flush);
  int64_t total = -untimed;
  for (auto& reactor : reactors) {
    total += reactor.server->stats().requests_handled;
  }
  for (auto& reactor : reactors) reactor.server->Stop();
  int64_t processed = 0;
  for (auto& worker : workers) {
    processed += worker->service().processed();
    worker->Stop();
  }

  EmitLine(label, clients, num_shards, total, snapshot_size, counts,
           processed);
}

int Run(int argc, char** argv) {
  int shards = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = std::atoi(argv[i] + 9);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: net_throughput [--shards=N]\n");
      return 2;
    }
  }

  const int requests_per_client =
      static_cast<int>(bench::ScaledCount(60, 300));
  const int64_t snapshot_size = bench::ScaledCount(1000, 20000);
  const std::string suffix =
      shards > 0 ? "_shards" + std::to_string(shards) : "";
  const int kClients[] = {8, 16, 64, 128};
  for (int clients : kClients) {
    const std::string label =
        "mixed_" + std::to_string(clients) + "_clients" + suffix;
    RunShardedConfig(label.c_str(), clients, requests_per_client, MixedMix(),
                     /*seed_pool=*/false, snapshot_size,
                     /*unique_snapshots=*/8, shards);
  }
  const std::string label = "query_4_clients" + suffix;
  RunShardedConfig(label.c_str(), /*clients=*/4,
                   static_cast<int>(bench::ScaledCount(2500, 12500)),
                   QueryMix(), /*seed_pool=*/true, snapshot_size,
                   /*unique_snapshots=*/8, shards);
  return 0;
}

}  // namespace
}  // namespace focus

int main(int argc, char** argv) { return focus::Run(argc, argv); }
