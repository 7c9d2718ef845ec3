// End-to-end MonitorService throughput: snapshots/second through the full
// ingest → mine/cache → screen → CUSUM pipeline, with and without cache
// hits, with every snapshot drifted (so each one also runs stage 2, the
// bootstrap significance test), plus what registering a stream costs.
// Emits JSON lines:
//   {"bench":"serve_throughput","config":"unique_snapshots",
//    "snapshots":N,"seconds":…,"snapshots_per_sec":…,"cache_hit_rate":…,
//    "mean_inspect_ms":…,"screened_out":…}
//   {"bench":"serve_throughput","config":"add_stream","streams":64,
//    "build_ms":…,"add_stream_ms_p50":…,"rss_kib_per_stream":…}
// Every row carries host_cpus and the build type.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "datagen/quest_gen.h"
#include "serve/metrics.h"
#include "serve/monitor_service.h"

namespace focus {
namespace {

// Pattern seed of the reference's process, and of a drifted one.
constexpr uint64_t kProcess = 99;
constexpr uint64_t kDriftedProcess = 7;

data::TransactionDb SnapshotDb(int64_t num_transactions, uint64_t seed,
                               uint64_t pattern_seed = kProcess) {
  datagen::QuestParams params = bench::PaperQuestParams(
      num_transactions, /*num_patterns=*/500, /*pattern_length=*/4, seed);
  params.pattern_seed = pattern_seed;
  return datagen::GenerateQuest(params);
}

// This process's resident set (VmRSS), in KiB; 0 where /proc is absent.
long long ResidentKiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoll(line.substr(6));
  }
  return 0;
}

serve::MonitorServiceOptions BenchOptions() {
  serve::MonitorServiceOptions options;
  options.monitor.apriori.min_support = 0.02;
  options.monitor.apriori.max_itemset_size = 2;
  options.monitor.calibration_replicates = 3;
  options.monitor.significance.num_replicates = 5;
  options.num_threads = 4;
  options.queue_capacity = 32;
  return options;
}

// What a stream costs to register. The service builds its one reference
// monitor (index, mine, calibrate) in its constructor, timed as build_ms;
// AddStream then only creates the stream's CUSUM state and an empty
// pending deque.
void RunAddStream(int64_t reference_size) {
  constexpr int kStreams = 64;
  const data::TransactionDb reference =
      SnapshotDb(reference_size, /*seed=*/1000);
  const common::Timer build_timer;
  serve::MonitorService service(BenchOptions(), reference,
                                /*metrics=*/nullptr);
  const double build_ms = build_timer.Millis();

  const long long rss_before = ResidentKiB();
  std::vector<double> add_ms;
  for (int i = 0; i < kStreams; ++i) {
    const std::string name = "stream-" + std::to_string(i);
    const common::Timer timer;
    service.AddStream(name);
    add_ms.push_back(timer.Millis());
  }
  const long long rss_after = ResidentKiB();
  std::sort(add_ms.begin(), add_ms.end());

  char line[384];
  std::snprintf(
      line, sizeof(line),
      "{\"bench\":\"serve_throughput\",\"config\":\"add_stream\","
      "\"reference_transactions\":%lld,\"streams\":%d,\"build_ms\":%.2f,"
      "\"add_stream_ms_p50\":%.4f,\"rss_kib_per_stream\":%.1f,"
      "\"host_cpus\":%u,\"build_type\":\"%s\"}",
      static_cast<long long>(reference_size), kStreams, build_ms,
      add_ms[add_ms.size() / 2],
      static_cast<double>(rss_after - rss_before) / kStreams,
      std::thread::hardware_concurrency(), FOCUS_BUILD_TYPE);
  bench::EmitBenchJson(line);
}

// One stream of `num_snapshots` snapshots from process `pattern_seed`:
// unique, or cycling through 4 contents when `repeat_content`.
void RunConfig(const char* label, int num_snapshots, bool repeat_content,
               int64_t snapshot_size, uint64_t pattern_seed = kProcess) {
  serve::MetricsRegistry metrics;
  serve::MonitorService service(
      BenchOptions(), SnapshotDb(snapshot_size, /*seed=*/1000), &metrics);

  // Pre-generate so generation cost stays out of the measured window.
  std::vector<serve::Snapshot> snapshots;
  snapshots.reserve(num_snapshots);
  for (int i = 0; i < num_snapshots; ++i) {
    serve::Snapshot snapshot;
    snapshot.stream = "bench";
    snapshot.source = "bench";
    const uint64_t seed = repeat_content ? 2000 + (i % 4) : 2000 + i;
    snapshot.db = SnapshotDb(snapshot_size, seed, pattern_seed);
    snapshots.push_back(std::move(snapshot));
  }

  const auto start = std::chrono::steady_clock::now();
  for (auto& snapshot : snapshots) {
    service.Ingest(std::move(snapshot), std::nullopt);
  }
  service.Flush();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;

  const auto stats = service.model_cache().stats();
  const double hit_rate =
      stats.hits + stats.misses == 0
          ? 0.0
          : static_cast<double>(stats.hits) / (stats.hits + stats.misses);
  char line[448];
  std::snprintf(
      line, sizeof(line),
      "{\"bench\":\"serve_throughput\",\"config\":\"%s\","
      "\"snapshots\":%d,\"snapshot_transactions\":%lld,"
      "\"seconds\":%.4f,\"snapshots_per_sec\":%.2f,"
      "\"cache_hit_rate\":%.3f,\"mean_inspect_ms\":%.3f,"
      "\"screened_out\":%lld,\"host_cpus\":%u,\"build_type\":\"%s\"}",
      label, num_snapshots, static_cast<long long>(snapshot_size),
      elapsed.count(), num_snapshots / elapsed.count(), hit_rate,
      metrics.GetHistogram("inspect_latency_ms").count() == 0
          ? 0.0
          : metrics.GetHistogram("inspect_latency_ms").sum() /
                metrics.GetHistogram("inspect_latency_ms").count(),
      static_cast<long long>(metrics.GetCounter("screened_out").Value()),
      std::thread::hardware_concurrency(), FOCUS_BUILD_TYPE);
  bench::EmitBenchJson(line);
}

int Run() {
  const int num_snapshots =
      static_cast<int>(bench::ScaledCount(100, 200));
  const int64_t snapshot_size = bench::ScaledCount(2000, 100000);
  RunConfig("unique_snapshots", num_snapshots, /*repeat_content=*/false,
            snapshot_size);
  RunConfig("repeated_snapshots", num_snapshots, /*repeat_content=*/true,
            snapshot_size);
  // Every snapshot passes the delta* screen, so this row times stage 2,
  // with no other stream contending for the pool.
  RunConfig("drifted_snapshots", num_snapshots, /*repeat_content=*/false,
            snapshot_size, kDriftedProcess);
  RunAddStream(snapshot_size);
  return 0;
}

}  // namespace
}  // namespace focus

int main() { return focus::Run(); }
