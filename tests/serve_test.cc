// Tests for the serving layer: the mined-model LRU cache, the metrics
// registry/JSON export, and the MonitorService end-to-end (per-stream
// ordering, backpressure and shutdown through Ingest, cross-stream
// concurrency, change-point detection on a shifted stream).

#include <gtest/gtest.h>

#include "common/mutex.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/thread_annotations.h"
#include "core/functions.h"
#include "core/lits_deviation.h"
#include "core/monitor.h"
#include "datagen/quest_gen.h"
#include "itemsets/apriori.h"
#include "serve/metrics.h"
#include "serve/model_cache.h"
#include "serve/monitor_service.h"
#include "stats/rng.h"

namespace focus::serve {
namespace {

data::TransactionDb QuestDb(uint64_t seed, uint64_t pattern_seed = 99) {
  datagen::QuestParams params;
  params.num_transactions = 400;
  params.num_items = 60;
  params.num_patterns = 100;
  params.avg_pattern_length = 4;
  params.avg_transaction_length = 8;
  params.seed = seed;
  params.pattern_seed = pattern_seed;
  return datagen::GenerateQuest(params);
}

Snapshot MakeSnapshot(const std::string& stream, uint64_t seed,
                      uint64_t pattern_seed = 99) {
  Snapshot snapshot;
  snapshot.stream = stream;
  snapshot.source = "test";
  snapshot.db = QuestDb(seed, pattern_seed);
  return snapshot;
}

// ------------------------------------------------------------ model cache

// The cached model of `db`, keyed by its content hash as Ingest keys it.
std::shared_ptr<const lits::LitsModel> Mine(ModelCache& cache,
                                            const data::TransactionDb& db,
                                            bool* hit = nullptr) {
  return cache.GetOrMine(db, TransactionDbContentHash(db), hit).model;
}

TEST(ModelCacheTest, ContentHashIsContentBased) {
  const data::TransactionDb a = QuestDb(1);
  const data::TransactionDb b = QuestDb(1);  // same content, fresh object
  const data::TransactionDb c = QuestDb(2);
  EXPECT_EQ(TransactionDbContentHash(a), TransactionDbContentHash(b));
  EXPECT_NE(TransactionDbContentHash(a), TransactionDbContentHash(c));
}

TEST(ModelCacheTest, HitsOnRepeatedSnapshotMissesOnNew) {
  lits::AprioriOptions options;
  options.min_support = 0.05;
  ModelCache cache(4, options);
  bool hit = true;
  const auto first = Mine(cache, QuestDb(1), &hit);
  EXPECT_FALSE(hit);
  const auto again = Mine(cache, QuestDb(1), &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), again.get());  // same cached object
  Mine(cache, QuestDb(2), &hit);
  EXPECT_FALSE(hit);
  const ModelCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ModelCacheTest, EvictsLeastRecentlyUsed) {
  lits::AprioriOptions options;
  options.min_support = 0.05;
  ModelCache cache(2, options);
  Mine(cache, QuestDb(1));
  Mine(cache, QuestDb(2));
  Mine(cache, QuestDb(1));  // promote db1; db2 is now LRU
  Mine(cache, QuestDb(3));  // evicts db2
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  bool hit = false;
  Mine(cache, QuestDb(1), &hit);
  EXPECT_TRUE(hit);  // survivor
  Mine(cache, QuestDb(2), &hit);
  EXPECT_FALSE(hit);  // was evicted
}

TEST(ModelCacheTest, CachedModelMatchesDirectMining) {
  lits::AprioriOptions options;
  options.min_support = 0.05;
  ModelCache cache(2, options);
  const data::TransactionDb db = QuestDb(5);
  const auto cached = Mine(cache, db);
  const lits::LitsModel direct = lits::Apriori(db, options);
  ASSERT_EQ(cached->size(), direct.size());
  for (const lits::Itemset& itemset : direct.StructuralComponent()) {
    EXPECT_DOUBLE_EQ(cached->SupportOr(itemset, -1.0),
                     direct.SupportOr(itemset, -1.0));
  }
}

TEST(ModelCacheTest, LookupMinedResolvesOnlyCachedHashes) {
  lits::AprioriOptions options;
  options.min_support = 0.05;
  ModelCache cache(2, options);
  const data::TransactionDb db = QuestDb(1);
  const uint64_t hash = TransactionDbContentHash(db);
  const MinedSnapshot mined = cache.GetOrMine(db, hash);

  const auto found = cache.LookupMined(hash);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->model.get(), mined.model.get());
  EXPECT_EQ(found->transactions.get(), mined.transactions.get());
  EXPECT_FALSE(cache.LookupMined(hash ^ 1).has_value());

  // Lookup promotes: after touching db1, inserting two more evicts db2,
  // not db1.
  Mine(cache, QuestDb(2));
  ASSERT_TRUE(cache.LookupMined(hash).has_value());
  Mine(cache, QuestDb(3));
  EXPECT_TRUE(cache.LookupMined(hash).has_value());
  EXPECT_FALSE(
      cache.LookupMined(TransactionDbContentHash(QuestDb(2))).has_value());
}

// The cache keys an entry on the hash its caller passes and never hashes
// the snapshot itself.
TEST(ModelCacheTest, KeysOnTheHashItIsGiven) {
  lits::AprioriOptions options;
  options.min_support = 0.05;
  ModelCache cache(2, options);
  const data::TransactionDb db = QuestDb(1);
  const uint64_t key = TransactionDbContentHash(db) ^ 1;
  const MinedSnapshot mined = cache.GetOrMine(db, key);
  const auto found = cache.LookupMined(key);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->model.get(), mined.model.get());
  EXPECT_FALSE(cache.LookupMined(TransactionDbContentHash(db)).has_value());
}

TEST(ModelCacheTest, SurfacesCountersThroughMetricsRegistry) {
  lits::AprioriOptions options;
  options.min_support = 0.05;
  MetricsRegistry registry;
  ModelCache cache(1, options, &registry);
  Mine(cache, QuestDb(1));  // miss
  Mine(cache, QuestDb(1));  // hit
  Mine(cache, QuestDb(2));  // miss + evicts db1
  EXPECT_EQ(registry.GetCounter("cache_hits").Value(), 1);
  EXPECT_EQ(registry.GetCounter("cache_misses").Value(), 2);
  EXPECT_EQ(registry.GetCounter("cache_evictions").Value(), 1);
  // The registry mirrors the cache's own stats exactly.
  const ModelCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.evictions, 1);
}

// --------------------------------------------------------------- metrics

TEST(MetricsTest, CountersAndGauges) {
  MetricsRegistry registry;
  registry.GetCounter("snapshots").Increment();
  registry.GetCounter("snapshots").Increment(4);
  registry.GetGauge("depth").Set(2.5);
  EXPECT_EQ(registry.GetCounter("snapshots").Value(), 5);
  EXPECT_DOUBLE_EQ(registry.GetGauge("depth").Value(), 2.5);
  // Same name must return the same object.
  EXPECT_EQ(&registry.GetCounter("snapshots"), &registry.GetCounter("snapshots"));
}

TEST(MetricsTest, HistogramStatsAndQuantiles) {
  Histogram histogram({1.0, 10.0, 100.0});
  for (double v : {0.5, 2.0, 3.0, 20.0}) histogram.Observe(v);
  EXPECT_EQ(histogram.count(), 4);
  EXPECT_DOUBLE_EQ(histogram.sum(), 25.5);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.5);
  EXPECT_DOUBLE_EQ(histogram.max(), 20.0);
  const double p50 = histogram.Quantile(0.5);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 10.0);  // median falls in the (1,10] bucket
  EXPECT_LE(histogram.Quantile(0.99), 100.0);
}

TEST(MetricsTest, EmptyHistogramIsSafe) {
  Histogram histogram({1.0});
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 0.0);
}

TEST(MetricsTest, JsonExportIsWellFormed) {
  MetricsRegistry registry;
  registry.GetCounter("a").Increment(3);
  registry.GetGauge("b").Set(1.5);
  registry.GetHistogram("c").Observe(2.0);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"unix_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"counters\":{\"a\":3}"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{\"b\":1.5}"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{\"c\":{"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(MetricsTest, JsonHelpers) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonNumber(1.5), "1.5");
  EXPECT_EQ(JsonNumber(0.0), "0");
  // Shortest representation must round-trip.
  EXPECT_EQ(std::stod(JsonNumber(0.1)), 0.1);
}

// JsonNumber as it was before its search began at std::to_chars's digit
// count: every precision from 1 up, then %.17g. The strings it gives are
// the ones every reply, event and /metrics line has always carried.
std::string TrialLoopJsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[32];
    std::snprintf(shorter, sizeof(shorter), "%.*g", precision, value);
    if (std::strtod(shorter, nullptr) == value) return shorter;
  }
  return buf;
}

TEST(MetricsTest, JsonNumberMatchesTrialLoopReference) {
  std::vector<double> values = Histogram::DefaultLatencyBucketsMs();
  const double min_normal = std::numeric_limits<double>::min();
  const double max = std::numeric_limits<double>::max();
  for (const double value :
       {0.0, -0.0, std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(), min_normal / 3,
        std::nextafter(min_normal, 0.0), min_normal, max, -max,
        std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(), 0.1, 0.3, 1.0 / 3, 1e-5,
        5e-324, 1e15, 1e16, 1e17, 9007199254740993.0, 123456789.125}) {
    values.push_back(value);
  }
  for (int i = -4096; i <= 4096; ++i) values.push_back(i);
  std::mt19937_64 rng = stats::MakeRng(0x4A534F4E);
  for (int i = 0; i < (1 << 20); ++i) {
    values.push_back(std::bit_cast<double>(static_cast<uint64_t>(rng())));
  }
  // The reference tries up to 16 precisions per value, so the values are
  // split over a few threads.
  constexpr size_t kThreads = 4;
  std::vector<std::vector<double>> mismatches(kThreads);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&values, &mismatches, t] {
      for (size_t i = t; i < values.size(); i += kThreads) {
        if (JsonNumber(values[i]) != TrialLoopJsonNumber(values[i])) {
          mismatches[t].push_back(values[i]);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const std::vector<double>& found : mismatches) {
    for (const double value : found) {
      ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<uint64_t>(value)
                    << ": " << JsonNumber(value)
                    << " != " << TrialLoopJsonNumber(value);
    }
  }
}

TEST(MetricsTest, PrometheusTextExposition) {
  MetricsRegistry registry;
  registry.GetCounter("snapshots_processed").Increment(7);
  registry.GetGauge("queue_depth").Set(3);
  Histogram& histogram = registry.GetHistogram("latency_ms");
  // Defaults span 0.1ms..~100s; observe into known buckets.
  histogram.Observe(0.05);
  histogram.Observe(50.0);
  const std::string text = registry.ToPrometheusText();

  EXPECT_NE(text.find("# TYPE focus_snapshots_processed_total counter\n"
                      "focus_snapshots_processed_total 7\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE focus_queue_depth gauge\n"
                      "focus_queue_depth 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE focus_latency_ms histogram"),
            std::string::npos);
  // Cumulative buckets end at +Inf == _count, and _sum matches.
  EXPECT_NE(text.find("focus_latency_ms_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("focus_latency_ms_sum 50.05"), std::string::npos);
  EXPECT_NE(text.find("focus_latency_ms_count 2"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');

  // Bucket counts are cumulative: every le series is >= the previous one.
  int64_t previous = -1;
  size_t at = 0;
  int buckets = 0;
  while ((at = text.find("focus_latency_ms_bucket{le=", at)) !=
         std::string::npos) {
    const size_t space = text.find("} ", at);
    const int64_t count = std::stoll(text.substr(space + 2));
    EXPECT_GE(count, previous);
    previous = count;
    ++buckets;
    ++at;
  }
  EXPECT_GT(buckets, 2);
}

TEST(MetricsTest, PrometheusNameSanitization) {
  EXPECT_EQ(PrometheusName("inspect_latency_ms"), "inspect_latency_ms");
  EXPECT_EQ(PrometheusName("weird-name.with spaces"),
            "weird_name_with_spaces");
  EXPECT_EQ(PrometheusName("9starts_with_digit"), "_9starts_with_digit");
  MetricsRegistry registry;
  registry.GetCounter("dotted.counter").Increment();
  EXPECT_NE(registry.ToPrometheusText().find("focus_dotted_counter_total 1"),
            std::string::npos);
}

// --------------------------------------------------------------- service

MonitorServiceOptions SmallServiceOptions() {
  MonitorServiceOptions options;
  options.monitor.apriori.min_support = 0.05;
  options.monitor.apriori.max_itemset_size = 2;
  options.monitor.calibration_replicates = 3;
  options.monitor.significance.num_replicates = 5;
  options.cusum.warmup = 4;
  options.cusum.decision_threshold = 4.0;
  options.num_threads = 2;
  options.queue_capacity = 8;
  options.model_cache_capacity = 8;
  return options;
}

// An event sink that holds every drain job inside the sink until Open().
// The sink runs before a snapshot stops counting as in flight, so a closed
// gate holds the service at its in-flight bound deterministically.
class SinkGate {
 public:
  std::function<void(const StreamEvent&)> Sink() {
    return [this](const StreamEvent& event) {
      common::MutexLock lock(&mutex_);
      sequences_.push_back(event.sequence);
      cv_.NotifyAll();
      cv_.Wait(mutex_, [this]() REQUIRES(mutex_) { return open_; });
    };
  }

  // Blocks until `n` events have entered the sink.
  void AwaitEvents(size_t n) {
    common::MutexLock lock(&mutex_);
    cv_.Wait(mutex_,
             [this, n]() REQUIRES(mutex_) { return sequences_.size() >= n; });
  }

  void Open() {
    common::MutexLock lock(&mutex_);
    open_ = true;
    cv_.NotifyAll();
  }

  // The sequence of every event that entered the sink, in sink order.
  std::vector<int64_t> sequences() {
    common::MutexLock lock(&mutex_);
    return sequences_;
  }

 private:
  common::Mutex mutex_;
  common::CondVar cv_;
  bool open_ GUARDED_BY(mutex_) = false;
  std::vector<int64_t> sequences_ GUARDED_BY(mutex_);
};

// The service of the gated tests: one worker, and room for one snapshot in
// flight.
MonitorServiceOptions OneSlotOptions() {
  MonitorServiceOptions options = SmallServiceOptions();
  options.num_threads = 1;
  options.queue_capacity = 1;
  return options;
}

TEST(MonitorServiceTest, ProcessesStreamInSubmissionOrder) {
  MetricsRegistry metrics;
  MonitorService service(SmallServiceOptions(), QuestDb(1000), &metrics);
  service.AddStream("s");
  EXPECT_TRUE(service.GetStreamStatus("s").has_value());
  EXPECT_FALSE(service.GetStreamStatus("other").has_value());

  std::vector<int64_t> order;
  service.SetEventSink(
      [&order](const StreamEvent& event) { order.push_back(event.sequence); });
  for (int i = 0; i < 6; ++i) {
    const IngestResult result =
        service.Ingest(MakeSnapshot("s", 2000 + i), std::nullopt);
    ASSERT_EQ(result.status, SubmitResult::kAccepted);
    ASSERT_EQ(result.sequence, i);
  }
  service.Flush();
  ASSERT_EQ(order.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(service.processed(), 6);
  EXPECT_EQ(metrics.GetCounter("snapshots_processed").Value(), 6);
}

TEST(MonitorServiceTest, RepeatedSnapshotHitsModelCache) {
  MetricsRegistry metrics;
  MonitorService service(SmallServiceOptions(), QuestDb(1000), &metrics);
  service.AddStream("s");
  bool saw_cache_hit = false;
  service.SetEventSink([&saw_cache_hit](const StreamEvent& event) {
    if (event.cache_hit) saw_cache_hit = true;
  });
  // The same snapshot content ingested twice: second mine must be skipped.
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(service.Ingest(MakeSnapshot("s", 77), std::nullopt).status,
              SubmitResult::kAccepted);
  }
  service.Flush();
  EXPECT_TRUE(saw_cache_hit);
  EXPECT_GE(service.model_cache().stats().hits, 1);
  EXPECT_EQ(metrics.GetCounter("cache_hits").Value(), 1);
}

// Ingest hashes the snapshot once and returns that hash; processing then
// caches the mined snapshot under it, so a compare by that hash resolves.
TEST(MonitorServiceTest, IngestReturnsTheHashTheCacheKeysOn) {
  MonitorService service(SmallServiceOptions(), QuestDb(1000), nullptr);
  const uint64_t expected = TransactionDbContentHash(QuestDb(77));
  const IngestResult result =
      service.Ingest(MakeSnapshot("s", 77), std::nullopt);
  ASSERT_EQ(result.status, SubmitResult::kAccepted);
  EXPECT_EQ(result.content_hash, expected);
  service.Flush();
  const std::optional<MinedSnapshot> mined =
      service.model_cache().LookupMined(result.content_hash);
  ASSERT_TRUE(mined.has_value());
  EXPECT_NE(mined->model, nullptr);
  EXPECT_NE(mined->transactions, nullptr);
}

// One reference, two streams from different processes: each keeps its
// own order, CUSUM and status.
TEST(MonitorServiceTest, TwoStreamsProcessIndependently) {
  MetricsRegistry metrics;
  MonitorService service(SmallServiceOptions(), QuestDb(1000), &metrics);
  service.AddStream("a");
  service.AddStream("b");
  std::vector<std::string> seen_a, seen_b;
  common::Mutex mutex;
  service.SetEventSink([&](const StreamEvent& event) {
    common::MutexLock lock(&mutex);
    (event.stream == "a" ? seen_a : seen_b).push_back(event.stream);
  });
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(service.Ingest(MakeSnapshot("a", 3000 + i), std::nullopt).status,
              SubmitResult::kAccepted);
    ASSERT_EQ(service
                  .Ingest(MakeSnapshot("b", 4000 + i, /*pattern_seed=*/123),
                          std::nullopt)
                  .status,
              SubmitResult::kAccepted);
  }
  service.Flush();
  EXPECT_EQ(seen_a.size(), 3u);
  EXPECT_EQ(seen_b.size(), 3u);
  const auto a = service.GetStreamStatus("a");
  const auto b = service.GetStreamStatus("b");
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(a->processed, 3);
  EXPECT_EQ(b->processed, 3);
  // b's process differs from the reference's; a's does not.
  EXPECT_LT(a->delta_star, b->delta_star);
}
// Every stream screens through the service's one shared monitor, and
// several drain jobs run its screen and stage 2 at once. Each event must
// still be exactly what a standalone monitor over the same reference
// reports for that snapshot. (Run under TSan in CI.)
TEST(MonitorServiceTest, SharedMonitorMatchesStandaloneUnderConcurrency) {
  MonitorServiceOptions options = SmallServiceOptions();
  options.num_threads = 4;
  options.queue_capacity = 16;
  options.model_cache_capacity = 64;
  const data::TransactionDb reference = QuestDb(1000);
  MonitorService service(options, reference, /*metrics=*/nullptr);
  common::Mutex mutex;
  std::vector<StreamEvent> events;
  service.SetEventSink([&](const StreamEvent& event) {
    common::MutexLock lock(&mutex);
    events.push_back(event);
  });

  // Interleaved across streams; every other snapshot comes from a drifted
  // process, so the screen fires (stage 2) beside screened-out ones.
  constexpr int kStreams = 5;
  constexpr int kPerStream = 6;
  const auto seed_of = [](int stream, int64_t sequence) {
    return static_cast<uint64_t>(9000 + 100 * stream + sequence);
  };
  const auto pattern_seed_of = [](int stream, int64_t sequence) {
    return static_cast<uint64_t>((stream + sequence) % 2 == 1 ? 7 : 99);
  };
  for (int i = 0; i < kPerStream; ++i) {
    for (int s = 0; s < kStreams; ++s) {
      const IngestResult result = service.Ingest(
          MakeSnapshot("s" + std::to_string(s), seed_of(s, i),
                       pattern_seed_of(s, i)),
          std::nullopt);
      ASSERT_EQ(result.status, SubmitResult::kAccepted);
      ASSERT_EQ(result.sequence, i);
    }
  }
  service.Flush();
  ASSERT_EQ(events.size(), static_cast<size_t>(kStreams * kPerStream));

  const core::LitsChangeMonitor standalone(reference, options.monitor);
  int screened = 0;
  for (const StreamEvent& event : events) {
    const int s = std::stoi(event.stream.substr(1));
    const core::MonitorReport want = standalone.Inspect(QuestDb(
        seed_of(s, event.sequence), pattern_seed_of(s, event.sequence)));
    EXPECT_EQ(event.report.upper_bound, want.upper_bound) << event.ToJson();
    EXPECT_EQ(event.report.screened_out, want.screened_out) << event.ToJson();
    EXPECT_EQ(event.report.deviation, want.deviation) << event.ToJson();
    EXPECT_EQ(event.report.significance_percent, want.significance_percent)
        << event.ToJson();
    if (event.report.screened_out) ++screened;
  }
  // Both branches ran: the screen alone, and the screen plus stage 2.
  EXPECT_GT(screened, 0);
  EXPECT_LT(screened, kStreams * kPerStream);
}

TEST(MonitorServiceTest, RegimeShiftTripsCusumChangePoint) {
  MonitorServiceOptions options = SmallServiceOptions();
  options.cusum.warmup = 5;
  options.cusum.decision_threshold = 4.0;
  MetricsRegistry metrics;
  // Reference and the first snapshots share pattern_seed 99: same
  // generating process, independent samples.
  MonitorService service(options, QuestDb(1000), &metrics);
  service.AddStream("s");
  bool change_point = false;
  service.SetEventSink([&change_point](const StreamEvent& event) {
    if (event.change_point) change_point = true;
  });
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(service.Ingest(MakeSnapshot("s", 5000 + i), std::nullopt).status,
              SubmitResult::kAccepted);
  }
  // Regime shift: a different pattern table => different process.
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(service
                  .Ingest(MakeSnapshot("s", 6000 + i, /*pattern_seed=*/7),
                          std::nullopt)
                  .status,
              SubmitResult::kAccepted);
  }
  service.Flush();
  EXPECT_TRUE(change_point);
  EXPECT_GE(metrics.GetCounter("change_points").Value(), 1);
}

TEST(MonitorServiceTest, SubmitAfterShutdownIsRefused) {
  MonitorService service(SmallServiceOptions(), QuestDb(1000),
                         /*metrics=*/nullptr);
  service.AddStream("s");
  service.Shutdown();
  const IngestResult unbounded =
      service.Ingest(MakeSnapshot("s", 1), std::nullopt);
  EXPECT_EQ(unbounded.status, SubmitResult::kShutdown);
  EXPECT_EQ(unbounded.sequence, -1);
  EXPECT_EQ(service.Ingest(MakeSnapshot("s", 1), std::chrono::milliseconds(1))
                .status,
            SubmitResult::kShutdown);
  service.Shutdown();  // idempotent
}

TEST(MonitorServiceTest, TrySubmitForShedsUnderSaturationThenRecovers) {
  MetricsRegistry metrics;
  MonitorService service(OneSlotOptions(), QuestDb(1000), &metrics);
  SinkGate gate;
  service.SetEventSink(gate.Sink());

  const IngestResult first =
      service.Ingest(MakeSnapshot("s", 7000), std::chrono::milliseconds(200));
  ASSERT_EQ(first.status, SubmitResult::kAccepted);
  EXPECT_EQ(first.sequence, 0);
  gate.AwaitEvents(1);  // the worker now sits inside the sink
  // queue_depth reports what --queue bounds: the snapshots in flight.
  EXPECT_EQ(metrics.GetGauge("queue_depth").Value(), 1.0);
  const IngestResult shed =
      service.Ingest(MakeSnapshot("s", 7001), std::chrono::milliseconds(5));
  EXPECT_EQ(shed.status, SubmitResult::kOverloaded);
  EXPECT_EQ(shed.sequence, -1);
  EXPECT_EQ(metrics.GetCounter("snapshots_shed").Value(), 1);

  gate.Open();
  service.Flush();
  EXPECT_EQ(service.processed(), 1);  // the shed snapshot was dropped clean
  EXPECT_EQ(metrics.GetGauge("queue_depth").Value(), 0.0);

  // After the backlog clears there is room again, and the shed snapshot
  // burned no sequence number.
  const IngestResult retry =
      service.Ingest(MakeSnapshot("s", 7002), std::chrono::seconds(5));
  EXPECT_EQ(retry.status, SubmitResult::kAccepted);
  EXPECT_EQ(retry.sequence, 1);
  service.Flush();
  EXPECT_EQ(service.processed(), 2);
  EXPECT_EQ(gate.sequences(), (std::vector<int64_t>{0, 1}));
}

// A shed snapshot and a post-shutdown one register nothing: a refused
// first ingest must not create a stream that listings and summaries count.
TEST(MonitorServiceTest, RefusedIngestRegistersNoStream) {
  MetricsRegistry metrics;
  MonitorService service(OneSlotOptions(), QuestDb(1000), &metrics);
  SinkGate gate;
  service.SetEventSink(gate.Sink());

  ASSERT_EQ(service.Ingest(MakeSnapshot("s", 7100), std::nullopt).status,
            SubmitResult::kAccepted);
  gate.AwaitEvents(1);
  EXPECT_EQ(
      service.Ingest(MakeSnapshot("t", 7101), std::chrono::milliseconds(5))
          .status,
      SubmitResult::kOverloaded);
  EXPECT_EQ(service.ListStreams(), (std::vector<std::string>{"s"}));
  EXPECT_FALSE(service.GetStreamStatus("t").has_value());

  gate.Open();
  service.Shutdown();
  EXPECT_EQ(service.Ingest(MakeSnapshot("u", 7102), std::nullopt).status,
            SubmitResult::kShutdown);
  EXPECT_EQ(service.ListStreams(), (std::vector<std::string>{"s"}));
  EXPECT_FALSE(service.GetStreamStatus("u").has_value());
  EXPECT_EQ(metrics.GetGauge("streams").Value(), 1.0);
}

// A snapshot the service cannot screen (no transactions, or an item
// universe other than the reference's 60 items) is refused with a reason
// before it waits for a slot, registers a stream or takes a number.
TEST(MonitorServiceTest, InvalidSnapshotIsRefusedBeforeItWaitsOrRegisters) {
  MetricsRegistry metrics;
  MonitorService service(OneSlotOptions(), QuestDb(1000), &metrics);
  SinkGate gate;
  service.SetEventSink(gate.Sink());
  ASSERT_EQ(service.Ingest(MakeSnapshot("s", 7300), std::nullopt).status,
            SubmitResult::kAccepted);
  gate.AwaitEvents(1);  // the one in-flight slot stays taken

  // Both calls wait without limit, so reaching the wait would hang here.
  Snapshot empty;
  empty.stream = "s";
  empty.db = data::TransactionDb(60);
  const IngestResult no_rows = service.Ingest(std::move(empty), std::nullopt);
  EXPECT_EQ(no_rows.status, SubmitResult::kInvalid);
  EXPECT_EQ(no_rows.sequence, -1);
  EXPECT_EQ(no_rows.reason, "snapshot has no transactions");

  Snapshot wide;
  wide.stream = "t";
  wide.db = data::TransactionDb(61);
  wide.db.AddTransaction(std::vector<int32_t>{0, 60});
  const IngestResult other = service.Ingest(std::move(wide), std::nullopt);
  EXPECT_EQ(other.status, SubmitResult::kInvalid);
  EXPECT_EQ(other.sequence, -1);
  EXPECT_EQ(other.reason, "snapshot declares 61 items; the reference has 60");
  EXPECT_EQ(service.ListStreams(), (std::vector<std::string>{"s"}));
  EXPECT_FALSE(service.GetStreamStatus("t").has_value());

  gate.Open();
  const IngestResult next =
      service.Ingest(MakeSnapshot("s", 7301), std::nullopt);
  EXPECT_EQ(next.status, SubmitResult::kAccepted);
  EXPECT_EQ(next.sequence, 1);
  service.Flush();
  EXPECT_EQ(gate.sequences(), (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(metrics.GetCounter("snapshots_submitted").Value(), 2);
  EXPECT_EQ(metrics.GetGauge("streams").Value(), 1.0);
}

// Ingest blocks while the service is at its in-flight bound, with no
// limit or within its wait, and is accepted once a slot frees.
TEST(MonitorServiceTest, IngestWaitsForASlotThenIsAccepted) {
  MonitorService service(OneSlotOptions(), QuestDb(1000),
                         /*metrics=*/nullptr);
  SinkGate gate;
  service.SetEventSink(gate.Sink());
  ASSERT_EQ(service.Ingest(MakeSnapshot("s", 7200), std::nullopt).status,
            SubmitResult::kAccepted);
  gate.AwaitEvents(1);

  const std::optional<std::chrono::milliseconds> waits[] = {
      std::nullopt, std::chrono::milliseconds(5000)};
  IngestResult results[2];
  std::atomic<int> returned{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      results[p] = service.Ingest(MakeSnapshot("s", 7201 + p), waits[p]);
      returned.fetch_add(1);
    });
  }
  // Both producers must stay parked while the only slot is taken.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(returned.load(), 0);

  gate.Open();
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(results[0].status, SubmitResult::kAccepted);
  EXPECT_EQ(results[1].status, SubmitResult::kAccepted);
  // Which waiter takes the freed slot first is up to the scheduler; the
  // two of them take sequences 1 and 2.
  EXPECT_EQ(std::min(results[0].sequence, results[1].sequence), 1);
  EXPECT_EQ(std::max(results[0].sequence, results[1].sequence), 2);
  service.Flush();
  EXPECT_EQ(gate.sequences(), (std::vector<int64_t>{0, 1, 2}));
}

// Shutdown wakes producers blocked on backpressure: each returns kShutdown
// while the in-flight snapshot still sits in the sink, and burns no
// sequence number.
TEST(MonitorServiceTest, ShutdownWakesIngestBlockedOnBackpressure) {
  MonitorService service(OneSlotOptions(), QuestDb(1000),
                         /*metrics=*/nullptr);
  SinkGate gate;
  service.SetEventSink(gate.Sink());
  ASSERT_EQ(service.Ingest(MakeSnapshot("s", 7300), std::nullopt).status,
            SubmitResult::kAccepted);
  gate.AwaitEvents(1);

  constexpr int kProducers = 4;
  IngestResult results[kProducers];
  std::atomic<int> started{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const std::optional<std::chrono::milliseconds> wait =
          p % 2 == 0 ? std::nullopt
                     : std::optional(std::chrono::milliseconds(60000));
      started.fetch_add(1);
      results[p] = service.Ingest(MakeSnapshot("s", 7301 + p), wait);
    });
  }
  // Give every producer a chance to park inside Ingest.
  while (started.load() < kProducers) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // Shutdown flushes, so it cannot return before the gate opens; the
  // producers must return before that.
  std::thread stopper([&service] { service.Shutdown(); });
  for (std::thread& t : producers) t.join();
  for (const IngestResult& result : results) {
    EXPECT_EQ(result.status, SubmitResult::kShutdown);
    EXPECT_EQ(result.sequence, -1);
  }
  EXPECT_EQ(gate.sequences(), (std::vector<int64_t>{0}));  // still gated

  gate.Open();
  stopper.join();
  EXPECT_EQ(service.processed(), 1);
  EXPECT_EQ(gate.sequences(), (std::vector<int64_t>{0}));
}

// Producers on two streams, with and without a wait limit, race Shutdown:
// every accepted snapshot is processed exactly once, in sequence order,
// and each stream's accepted sequences are exactly 0..k-1. (Run under TSan
// in CI.)
TEST(MonitorServiceTest, ShutdownMidTrafficLosesNothingAccepted) {
  MonitorServiceOptions options = SmallServiceOptions();
  options.queue_capacity = 2;
  MonitorService service(options, QuestDb(1000), /*metrics=*/nullptr);
  common::Mutex mutex;
  std::map<std::string, std::vector<int64_t>> processed;
  service.SetEventSink([&](const StreamEvent& event) {
    common::MutexLock lock(&mutex);
    processed[event.stream].push_back(event.sequence);
  });
  // Pre-generated, so producers spend their time in Ingest.
  const Snapshot samples[] = {MakeSnapshot("", 7400), MakeSnapshot("", 7401)};

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  std::map<std::string, std::vector<int64_t>> accepted;
  std::atomic<int> num_accepted{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        Snapshot snapshot = samples[i % 2];
        snapshot.stream = p % 2 == 0 ? "a" : "b";
        const std::optional<std::chrono::milliseconds> wait =
            i % 2 == 0 ? std::nullopt
                       : std::optional(std::chrono::milliseconds(1));
        const IngestResult result = service.Ingest(snapshot, wait);
        if (result.status == SubmitResult::kShutdown) return;
        if (result.status == SubmitResult::kAccepted) {
          common::MutexLock lock(&mutex);
          accepted[snapshot.stream].push_back(result.sequence);
          num_accepted.fetch_add(1);
        }
      }
    });
  }
  // Mid-traffic: well before the producers' 800 snapshots are through.
  while (num_accepted.load() < 20) std::this_thread::yield();
  service.Shutdown();
  for (std::thread& t : producers) t.join();

  EXPECT_EQ(processed.size(), accepted.size());
  for (auto& [stream, sequences] : accepted) {
    std::sort(sequences.begin(), sequences.end());
    for (size_t i = 0; i < sequences.size(); ++i) {
      EXPECT_EQ(sequences[i], static_cast<int64_t>(i)) << stream;
    }
    // Drained in sequence order, each exactly once.
    EXPECT_EQ(processed[stream], sequences) << stream;
  }
}

TEST(MonitorServiceTest, StatusAndQueryDeviationTrackLatestSnapshot) {
  MonitorService service(SmallServiceOptions(), QuestDb(1000),
                         /*metrics=*/nullptr);
  service.AddStream("s");

  EXPECT_FALSE(service.GetStreamStatus("ghost").has_value());
  auto empty = service.GetStreamStatus("s");
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->processed, 0);
  EXPECT_FALSE(empty->has_snapshot);

  // Before any snapshot, QueryDeviation reports status but no deviation.
  const FgChoice abs_sum(FgChoice::F::kAbs, FgChoice::G::kSum);
  const core::DeviationFunction fn = abs_sum.function();
  auto no_data = service.QueryDeviation("s", abs_sum);
  ASSERT_TRUE(no_data.has_value());
  EXPECT_FALSE(no_data->has_deviation);

  for (const uint64_t seed : {42, 43}) {
    ASSERT_EQ(service.Ingest(MakeSnapshot("s", seed), std::nullopt).status,
              SubmitResult::kAccepted);
  }
  service.Flush();

  const auto status = service.GetStreamStatus("s");
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->processed, 2);
  EXPECT_TRUE(status->has_snapshot);
  EXPECT_EQ(status->sequence, 1);
  EXPECT_GT(status->num_transactions, 0);

  // The query recomputes from the CACHED model and transactions of
  // snapshot 43 and must agree with a direct, scanned LitsDeviation over
  // the same data.
  const auto result = service.QueryDeviation("s", abs_sum);
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->has_deviation);
  core::LitsChangeMonitor direct(QuestDb(1000),
                                 SmallServiceOptions().monitor);
  const data::TransactionDb latest = QuestDb(43);
  const lits::LitsModel latest_model =
      lits::Apriori(latest, SmallServiceOptions().monitor.apriori);
  EXPECT_EQ(result->deviation,
            core::LitsDeviation(direct.reference_model(), direct.reference(),
                                latest_model, latest, fn));

  // Different (f,g) choices answer from the same cached state.
  const FgChoice scaled_max(FgChoice::F::kScaled, FgChoice::G::kMax);
  const auto other = service.QueryDeviation("s", scaled_max);
  ASSERT_TRUE(other.has_value());
  EXPECT_TRUE(other->has_deviation);
}

// ------------------------------------------------------------ flags

std::optional<MonitorServiceOptions> OptionsFromArgs(
    std::vector<const char*> argv, std::string* error) {
  argv.insert(argv.begin(), "daemon");
  const auto flags = common::Flags::Parse(
      static_cast<int>(argv.size()), const_cast<char* const*>(argv.data()),
      1,
      {"minsup", "factor", "calibration", "replicates", "warmup", "slack",
       "decision", "threads", "queue", "cache"});
  EXPECT_TRUE(flags.has_value());
  return MonitorServiceOptionsFromFlags(*flags, error);
}

TEST(MonitorServiceOptionsTest, DefaultsAndRangeBoundsAreAccepted) {
  std::string error;
  const auto defaults = OptionsFromArgs({}, &error);
  ASSERT_TRUE(defaults.has_value()) << error;
  EXPECT_EQ(defaults->monitor.apriori.min_support, 0.01);
  EXPECT_EQ(defaults->monitor.significance.num_replicates, 9);
  EXPECT_EQ(defaults->cusum.warmup, 5);
  EXPECT_EQ(defaults->queue_capacity, 64u);

  const auto bounds = OptionsFromArgs(
      {"--minsup", "1", "--factor", "0.001", "--calibration", "1",
       "--replicates", "1", "--warmup", "2", "--slack", "0", "--decision",
       "0.001", "--threads", "1", "--queue", "1", "--cache", "1"},
      &error);
  ASSERT_TRUE(bounds.has_value()) << error;
  EXPECT_EQ(bounds->monitor.apriori.min_support, 1.0);
  EXPECT_EQ(bounds->monitor.calibration_replicates, 1);
  EXPECT_EQ(bounds->cusum.warmup, 2);
  EXPECT_EQ(bounds->cusum.slack, 0.0);
  EXPECT_EQ(bounds->num_threads, 1);
  EXPECT_EQ(bounds->model_cache_capacity, 1u);
}

// Each value would otherwise reach a FOCUS_CHECK abort, or (--queue -1)
// wrap to SIZE_MAX, or (--warmup 4294967298) wrap to an int of 2.
TEST(MonitorServiceOptionsTest, OutOfRangeFlagIsAnErrorNamingTheFlag) {
  const std::vector<std::pair<const char*, const char*>> cases = {
      {"minsup", "0"},      {"minsup", "1.5"},      {"minsup", "nan"},
      {"factor", "0"},      {"calibration", "0"},   {"replicates", "0"},
      {"warmup", "1"},      {"warmup", "4294967298"}, {"slack", "-0.1"},
      {"decision", "0"},    {"threads", "0"},       {"queue", "0"},
      {"queue", "-1"},      {"cache", "0"}};
  for (const auto& [name, value] : cases) {
    const std::string flag = std::string("--") + name;
    std::string error;
    EXPECT_FALSE(OptionsFromArgs({flag.c_str(), value}, &error).has_value())
        << flag << " " << value;
    EXPECT_EQ(error.rfind(flag + " must be ", 0), 0u) << error;
    EXPECT_NE(error.find(value), std::string::npos) << error;
  }
}

TEST(StreamEventTest, ToJsonContainsCoreFields) {
  StreamEvent event;
  event.stream = "payments";
  event.sequence = 12;
  event.source = "spool/x.txns";
  event.num_transactions = 400;
  event.report.upper_bound = 0.25;
  event.report.screened_out = true;
  event.cusum = 1.5;
  event.cache_hit = true;
  const std::string json = event.ToJson();
  EXPECT_NE(json.find("\"type\":\"event\""), std::string::npos);
  EXPECT_NE(json.find("\"stream\":\"payments\""), std::string::npos);
  EXPECT_NE(json.find("\"seq\":12"), std::string::npos);
  EXPECT_NE(json.find("\"delta_star\":0.25"), std::string::npos);
  EXPECT_NE(json.find("\"screened_out\":true"), std::string::npos);
  EXPECT_NE(json.find("\"cusum\":1.5"), std::string::npos);
  // Screened-out events carry no exact deviation.
  EXPECT_EQ(json.find("\"delta\":"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

}  // namespace
}  // namespace focus::serve
