// Differential oracles for serve::ModelCache: a cache hit must return a
// model indistinguishable from mining cold (the cache is a pure
// memoization of Apriori keyed by content hash), LRU eviction under
// random access must never change WHAT is returned — only how often
// mining runs — and a deviation through an entry's lazily built index
// must equal one through an eager index and one by scanning. The read
// memos (a stream's deviation per (f, g) until its next publish, a
// compare per cached pair) are memoizations too: a memoized read must
// equal a cold one, also while a stream keeps publishing.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/functions.h"
#include "core/lits_deviation.h"
#include "core/lits_upper_bound.h"
#include "core/monitor.h"
#include "data/vertical_index.h"
#include "datagen/quest_gen.h"
#include "io/data_io.h"
#include "itemsets/apriori.h"
#include "net/router.h"
#include "proptest/generators.h"
#include "proptest/proptest.h"
#include "serve/api_util.h"
#include "serve/fg_choice.h"
#include "serve/metrics.h"
#include "serve/model_cache.h"
#include "serve/monitor_service.h"
#include "shard/shard_router.h"
#include "shard/shard_worker.h"
#include "shard/sharded_api.h"

namespace focus::serve {
namespace {

using proptest::Check;
using proptest::PropResult;
using proptest::Rng;

bool SameModel(const lits::LitsModel& x, const lits::LitsModel& y) {
  if (x.size() != y.size() || x.num_items() != y.num_items() ||
      x.num_transactions() != y.num_transactions() ||
      x.min_support() != y.min_support())
    return false;
  for (const lits::Itemset& itemset : x.StructuralComponent()) {
    if (y.SupportOr(itemset, -1.0) != x.SupportOr(itemset, -1.0))
      return false;
  }
  return true;
}

TEST(DiffCache, HitEqualsColdMiss) {
  EXPECT_TRUE(Check<proptest::LitsWorkload>(
      "diff/cache-hit-equals-cold-miss", proptest::LitsWorkloadDomain(),
      [](const proptest::LitsWorkload& workload) {
        const data::TransactionDb db = proptest::MaterializeDb(workload);
        const lits::LitsModel cold = lits::Apriori(db, workload.apriori);

        ModelCache cache(4, workload.apriori);
        const uint64_t hash = TransactionDbContentHash(db);
        bool hit = true;
        const auto missed = cache.GetOrMineIndexed(db, hash, &hit).model;
        if (hit) return PropResult::Fail("first access reported a hit");
        if (!SameModel(*missed, cold))
          return PropResult::Fail("cached miss differs from cold mining");

        const auto served = cache.GetOrMineIndexed(db, hash, &hit).model;
        if (!hit) return PropResult::Fail("second access reported a miss");
        if (served.get() != missed.get())
          return PropResult::Fail("hit returned a different object");
        if (core::LitsUpperBound(*served, cold, core::AggregateKind::kSum) !=
            0.0)
          return PropResult::Fail("delta*(hit, cold) != 0");

        const auto looked_up = cache.LookupMined(hash);
        if (!looked_up.has_value() || looked_up->model.get() != missed.get())
          return PropResult::Fail("LookupMined by content hash missed");

        const ModelCacheStats stats = cache.stats();
        if (stats.hits != 2 || stats.misses != 1 || stats.evictions != 0)
          return PropResult::Fail(
              "stats wrong: hits=" + std::to_string(stats.hits) +
              " misses=" + std::to_string(stats.misses) +
              " evictions=" + std::to_string(stats.evictions));
        return PropResult::Ok();
      }));
}

TEST(DiffCache, EvictionNeverChangesServedModels) {
  // Three distinct snapshots churning through a capacity-2 cache with a
  // random access pattern: every GetOrMineIndexed must still serve exactly
  // the cold-mined model for its snapshot, and the hit/miss/eviction
  // ledger must add up.
  EXPECT_TRUE(Check<proptest::LitsTriple>(
      "diff/cache-eviction-consistency", proptest::LitsTripleDomain(),
      [](const proptest::LitsTriple& triple) {
        const std::vector<proptest::LitsWorkload> workloads = {
            triple.a, triple.b, triple.c};
        std::vector<data::TransactionDb> dbs;
        std::vector<uint64_t> hashes;
        std::vector<lits::LitsModel> cold;
        for (const proptest::LitsWorkload& workload : workloads) {
          dbs.push_back(proptest::MaterializeDb(workload));
          hashes.push_back(TransactionDbContentHash(dbs.back()));
          cold.push_back(lits::Apriori(dbs.back(), triple.a.apriori));
        }

        ModelCache cache(2, triple.a.apriori);
        Rng access_rng(triple.a.quest.seed ^ 0x5EEDu);
        int64_t accesses = 0;
        for (int step = 0; step < 24; ++step) {
          const auto pick =
              static_cast<size_t>(access_rng.IntIn(0, 2));
          const auto served =
              cache.GetOrMineIndexed(dbs[pick], hashes[pick]).model;
          ++accesses;
          if (!SameModel(*served, cold[pick]))
            return PropResult::Fail("served model differs from cold mining");
        }
        const ModelCacheStats stats = cache.stats();
        if (stats.hits + stats.misses != accesses)
          return PropResult::Fail("hits + misses != accesses");
        if (stats.evictions > stats.misses)
          return PropResult::Fail("more evictions than misses");
        if (cache.size() > cache.capacity())
          return PropResult::Fail("cache exceeded its capacity");
        return PropResult::Ok();
      },
      proptest::Config::FromEnv(8)));
}

TEST(DiffCache, LazyIndexDeviationEqualsEagerAndScan) {
  // Snapshot a plays the reference (an eager index, as the service's
  // monitor holds one) and b a cached snapshot: a deviation reads b's lazy
  // index, and a compare (POST /v1/compare) reads both snapshots' lazy
  // indexes. Every (f, g) must give the same double through the lazy
  // indexes, through eager ones and by scanning, and each snapshot builds
  // its index once, however many reads probe it.
  EXPECT_TRUE(Check<proptest::LitsPair>(
      "diff/cache-lazy-index-equals-eager-and-scan",
      proptest::LitsPairDomain(),
      [](const proptest::LitsPair& pair) {
        const data::TransactionDb da = proptest::MaterializeDb(pair.a);
        const data::TransactionDb db = proptest::MaterializeDb(pair.b);
        MetricsRegistry registry;
        ModelCache cache(4, pair.a.apriori, &registry);
        const uint64_t hash_a = TransactionDbContentHash(da);
        const uint64_t hash_b = TransactionDbContentHash(db);
        const MinedSnapshot a = cache.GetOrMineIndexed(da, hash_a);
        const MinedSnapshot b = cache.GetOrMineIndexed(db, hash_b);
        const Counter& builds = registry.GetCounter("index_builds");
        if (builds.Value() != 0)
          return PropResult::Fail("mining built an index");

        const data::VerticalIndex eager_a(da);
        const data::VerticalIndex eager_b(db);
        for (const core::AggregateKind g :
             {core::AggregateKind::kSum, core::AggregateKind::kMax}) {
          for (const core::DiffFn& f :
               {core::AbsoluteDiff(), core::ScaledDiff()}) {
            core::DeviationFunction fn;
            fn.f = f;
            fn.g = g;
            const double scan = core::LitsDeviation(*a.model, da, *b.model,
                                                    db, fn);
            if (core::LitsDeviation(*a.model, &eager_a, *b.model, &eager_b,
                                    fn) != scan)
              return PropResult::Fail("eager indexes differ from a scan");
            if (core::LitsDeviation(*a.model, &eager_a, *b.model,
                                    &b.index->Get(), fn) != scan)
              return PropResult::Fail("deviation via a lazy index differs");
            if (core::LitsDeviation(*a.model, &a.index->Get(), *b.model,
                                    &b.index->Get(), fn) != scan)
              return PropResult::Fail("compare via lazy indexes differs");
          }
        }
        // Equal snapshots share one cache entry, hence one index.
        if (builds.Value() != (hash_a == hash_b ? 1 : 2))
          return PropResult::Fail("index_builds = " +
                                  std::to_string(builds.Value()) +
                                  ", want one per distinct snapshot");
        if (!(a.index->Get() == eager_a) || !(b.index->Get() == eager_b))
          return PropResult::Fail("a lazy index differs from an eager one");
        return PropResult::Ok();
      },
      proptest::Config::FromEnv(8)));
}

// ------------------------------------------------------------ read memos

constexpr FgChoice kFgChoices[] = {
    {FgChoice::F::kAbs, FgChoice::G::kSum},
    {FgChoice::F::kAbs, FgChoice::G::kMax},
    {FgChoice::F::kScaled, FgChoice::G::kSum},
    {FgChoice::F::kScaled, FgChoice::G::kMax}};

data::TransactionDb QuestSnapshot(uint64_t seed) {
  datagen::QuestParams params;
  params.num_transactions = 250;
  params.num_items = 50;
  params.num_patterns = 80;
  params.avg_pattern_length = 4;
  params.avg_transaction_length = 8;
  params.seed = seed;
  params.pattern_seed = 99;
  return datagen::GenerateQuest(params);
}

MonitorServiceOptions MemoOptions(size_t cache_capacity) {
  MonitorServiceOptions options;
  options.monitor.calibration_replicates = 2;
  options.num_threads = 2;
  options.model_cache_capacity = cache_capacity;
  return options;
}

// A snapshot mined and indexed from its raw transactions, apart from any
// cache.
struct ColdSnapshot {
  ColdSnapshot(const data::TransactionDb& db,
               const lits::AprioriOptions& options)
      : model(lits::Apriori(db, options)), index(db) {}

  lits::LitsModel model;
  data::VerticalIndex index;
};

// Every read recomputed from cold snapshots, against the service's
// reference and with its mining options.
class ColdOracle {
 public:
  ColdOracle(const data::TransactionDb& reference,
             const MonitorServiceOptions& options)
      : monitor_(reference, options.monitor),
        apriori_(options.monitor.apriori) {}

  ColdSnapshot Mine(const data::TransactionDb& db) const {
    return ColdSnapshot(db, apriori_);
  }

  double Deviation(const ColdSnapshot& snapshot, FgChoice fg) const {
    return core::LitsDeviation(monitor_.reference_model(),
                               &monitor_.reference_index(), snapshot.model,
                               &snapshot.index, fg.function());
  }

  static double Compare(const ColdSnapshot& left, const ColdSnapshot& right,
                        FgChoice fg) {
    return core::LitsDeviation(left.model, &left.index, right.model,
                               &right.index, fg.function());
  }

 private:
  const core::LitsChangeMonitor monitor_;
  const lits::AprioriOptions apriori_;
};

// focus_served --shards 0 in process: one worker behind a local channel,
// the router, and the HTTP handlers (dispatched without a socket).
class ServingStack {
 public:
  ServingStack(const data::TransactionDb& reference,
               const MonitorServiceOptions& options)
      : worker_(WorkerOptions(options), reference, &metrics_),
        channel_(&worker_),
        router_(std::vector<shard::ShardChannel*>{&channel_}),
        api_(shard::ShardedApiOptions{}, &router_, &metrics_),
        http_(api_.BuildRouter()) {}

  ~ServingStack() { worker_.Stop(); }

  // Ingests `db` into `stream` and returns its content hash.
  uint64_t Ingest(const std::string& stream, const data::TransactionDb& db) {
    std::ostringstream text;
    io::SaveTransactionDb(db, text);
    shard::SubmitResultBody result;
    std::string error;
    EXPECT_EQ(router_.Submit(stream, "laws", text.str(), &result, &error),
              shard::ShardRouter::Status::kOk)
        << error;
    EXPECT_EQ(result.status, 202) << result.error;
    return result.content_hash;
  }

  void Flush() { worker_.service().Flush(); }

  net::HttpResponse Call(const std::string& method, const std::string& path,
                         const std::map<std::string, std::string>& query) {
    net::HttpRequest request;
    request.method = method;
    request.path = path;
    request.query = query;
    return http_.Dispatch(request);
  }

  shard::ShardRouter& router() { return router_; }
  MetricsRegistry& metrics() { return metrics_; }

 private:
  static shard::ShardWorkerOptions WorkerOptions(
      const MonitorServiceOptions& options) {
    shard::ShardWorkerOptions worker_options;
    worker_options.service = options;
    return worker_options;
  }

  MetricsRegistry metrics_;
  shard::ShardWorker worker_;
  shard::LocalShardChannel channel_;
  shard::ShardRouter router_;
  shard::ShardedApi api_;
  net::Router http_;
};

TEST(DiffCache, MemoizedReadsEqualColdReads) {
  // Three streams over a four-entry model cache. Each round replaces every
  // stream's latest snapshot and evicts older cache entries; the last
  // round re-ingests round 0's snapshots, whose compare results were
  // dropped with their entries. Each round reads everything twice: the
  // first pass computes and fills the memos, the second reads them.
  const data::TransactionDb reference = QuestSnapshot(1);
  const MonitorServiceOptions options = MemoOptions(4);
  ServingStack stack(reference, options);
  const ColdOracle cold(reference, options);
  const Counter& hits = stack.metrics().GetCounter("read_memo_hits");
  const Counter& misses = stack.metrics().GetCounter("read_memo_misses");
  const std::vector<std::string> streams = {"a", "b", "c"};
  std::vector<uint64_t> previous_hashes;
  for (const uint64_t round_seed : {100, 200, 300, 100}) {
    std::vector<ColdSnapshot> latest;
    std::vector<uint64_t> hashes;
    for (size_t i = 0; i < streams.size(); ++i) {
      const data::TransactionDb db = QuestSnapshot(round_seed + i);
      latest.push_back(cold.Mine(db));
      hashes.push_back(stack.Ingest(streams[i], db));
    }
    stack.Flush();
    for (const FgChoice fg : kFgChoices) {
      std::vector<SummaryEntry> cold_entries;
      for (size_t i = 0; i < streams.size(); ++i) {
        cold_entries.push_back({streams[i], true, cold.Deviation(latest[i], fg)});
      }
      const SummaryResult cold_summary =
          AggregateSummary(&cold_entries, fg.aggregate());
      std::map<std::pair<size_t, size_t>, double> cold_compares;
      for (size_t a = 0; a < streams.size(); ++a) {
        for (size_t b = 0; b < streams.size(); ++b) {
          cold_compares[{a, b}] = ColdOracle::Compare(latest[a], latest[b], fg);
        }
      }
      for (int pass = 0; pass < 2; ++pass) {
        const int64_t hits_before = hits.Value();
        const int64_t misses_before = misses.Value();
        const std::string where = "seed " + std::to_string(round_seed) +
                                  " f=" + std::string(fg.f_name()) + " g=" +
                                  std::string(fg.g_name()) +
                                  " pass " + std::to_string(pass);
        std::string error;
        std::vector<SummaryEntry> entries;
        SummaryResult summary;
        ASSERT_EQ(stack.router().Summary(fg, &entries, &summary, &error),
                  shard::ShardRouter::Status::kOk)
            << error;
        EXPECT_EQ(summary.aggregate, cold_summary.aggregate) << where;
        ASSERT_EQ(entries.size(), cold_entries.size()) << where;
        for (size_t i = 0; i < entries.size(); ++i) {
          EXPECT_EQ(entries[i].stream, cold_entries[i].stream) << where;
          EXPECT_EQ(entries[i].deviation, cold_entries[i].deviation) << where;
        }
        for (size_t i = 0; i < streams.size(); ++i) {
          shard::DeviationResultBody deviation;
          ASSERT_EQ(stack.router().QueryDeviation(streams[i], fg, &deviation,
                                                  &error),
                    shard::ShardRouter::Status::kOk)
              << error;
          ASSERT_EQ(deviation.has_deviation, 1) << where;
          EXPECT_EQ(deviation.deviation, cold_entries[i].deviation) << where;
        }
        for (const auto& [pair, expected] : cold_compares) {
          double deviation = -1.0;
          std::vector<uint64_t> missing;
          ASSERT_EQ(stack.router().Compare(hashes[pair.first],
                                           hashes[pair.second], fg,
                                           &deviation, &missing, &error),
                    shard::ShardRouter::Status::kOk)
              << where << " " << error;
          EXPECT_EQ(deviation, expected) << where << " pair " << pair.first
                                         << "," << pair.second;
        }
        // The first pass computes the summary's three deviations (then
        // read by the deviation calls) and nine compares; the second
        // computes nothing.
        if (pass == 0) {
          EXPECT_EQ(misses.Value() - misses_before, 3 + 9) << where;
          EXPECT_EQ(hits.Value() - hits_before, 3) << where;
        } else {
          EXPECT_EQ(misses.Value() - misses_before, 0) << where;
          EXPECT_EQ(hits.Value() - hits_before, 3 + 3 + 9) << where;
        }
      }
    }
    // Three new entries in a four-entry cache evicted at least two of the
    // previous round's: their compares are 404s, memo or not.
    int evicted = 0;
    for (const uint64_t hash : previous_hashes) {
      double deviation = 0.0;
      std::vector<uint64_t> missing;
      std::string error;
      if (stack.router().Compare(hash, hash, FgChoice(), &deviation, &missing,
                                 &error) ==
          shard::ShardRouter::Status::kNotFound) {
        ++evicted;
      }
    }
    if (!previous_hashes.empty()) {
      EXPECT_GE(evicted, 2);
    }
    previous_hashes = hashes;
  }
}

TEST(DiffCache, RacingReadsMatchTheSnapshotTheirSequenceNames) {
  // Readers poll a stream under every (f, g) while its snapshots keep
  // publishing. A reply's deviation must be the cold deviation of the
  // very snapshot whose sequence that reply reports, whether the reply
  // computed it or read the memo.
  const data::TransactionDb reference = QuestSnapshot(1);
  const MonitorServiceOptions options = MemoOptions(8);
  MonitorService service(options, reference, nullptr);
  const ColdOracle cold(reference, options);
  constexpr int kSnapshots = 24;
  constexpr int kReaders = 3;

  // The distinct (sequence, fg index, deviation) of the replies that
  // carried a deviation: a wrong reply adds a tuple.
  using Sample = std::tuple<int64_t, int, double>;
  std::vector<std::set<Sample>> samples(kReaders);
  std::atomic<bool> writing{true};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      // Poll until the writer is done, then once more over the final state.
      for (bool last = false; !last;) {
        last = !writing.load(std::memory_order_acquire);
        for (const FgChoice fg : kFgChoices) {
          const auto reply = service.QueryDeviation("s", fg);
          if (!reply.has_value() || !reply->has_deviation) continue;
          samples[r].emplace(reply->status.sequence, fg.index(),
                             reply->deviation);
        }
      }
    });
  }
  std::map<int64_t, uint64_t> seed_of_sequence;
  for (int k = 0; k < kSnapshots; ++k) {
    Snapshot snapshot;
    snapshot.stream = "s";
    snapshot.db = QuestSnapshot(500 + k);
    const IngestResult ingest =
        service.Ingest(std::move(snapshot), std::nullopt);
    EXPECT_EQ(ingest.status, SubmitResult::kAccepted);
    seed_of_sequence[ingest.sequence] = 500 + k;
  }
  service.Flush();
  writing.store(false, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  std::map<std::pair<int64_t, int>, double> cold_deviations;
  std::set<int64_t> sequences_seen;
  for (const std::set<Sample>& reader_samples : samples) {
    for (const auto& [sequence, fg_index, deviation] : reader_samples) {
      auto it = cold_deviations.find({sequence, fg_index});
      if (it == cold_deviations.end()) {
        ASSERT_TRUE(seed_of_sequence.contains(sequence)) << sequence;
        it = cold_deviations
                 .emplace(std::make_pair(sequence, fg_index),
                          cold.Deviation(cold.Mine(QuestSnapshot(
                                             seed_of_sequence.at(sequence))),
                                         kFgChoices[fg_index]))
                 .first;
      }
      EXPECT_EQ(deviation, it->second)
          << "seq " << sequence << " fg " << fg_index;
      sequences_seen.insert(sequence);
    }
  }
  // Every reader's last sweep saw the final snapshot.
  EXPECT_TRUE(sequences_seen.contains(kSnapshots - 1));
}

// The value of the counter `name` in a /metrics body, or -1.
int64_t PrometheusCounter(const std::string& text, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  const size_t at = text.find(needle);
  if (at == std::string::npos) return -1;
  return std::stoll(text.substr(at + needle.size()));
}

TEST(DiffCache, FirstReadAfterAPublishMissesAndARepeatHits) {
  ServingStack stack(QuestSnapshot(1), MemoOptions(8));
  const auto expect_counts = [&stack](int64_t hits, int64_t misses,
                                      const std::string& after) {
    const net::HttpResponse metrics = stack.Call("GET", "/metrics", {});
    ASSERT_EQ(metrics.status, 200);
    EXPECT_EQ(PrometheusCounter(metrics.body, "focus_read_memo_hits_total"),
              hits)
        << after;
    EXPECT_EQ(PrometheusCounter(metrics.body, "focus_read_memo_misses_total"),
              misses)
        << after;
  };
  const std::map<std::string, std::string> scaled_max = {{"f", "scaled"},
                                                          {"g", "max"}};
  const uint64_t first = stack.Ingest("s", QuestSnapshot(11));
  stack.Flush();
  expect_counts(0, 0, "the first publish");
  const std::string deviation_path = "/v1/streams/s/deviation";
  ASSERT_EQ(stack.Call("GET", deviation_path, scaled_max).status, 200);
  expect_counts(0, 1, "a first read");
  ASSERT_EQ(stack.Call("GET", deviation_path, scaled_max).status, 200);
  expect_counts(1, 1, "a repeat");
  ASSERT_EQ(stack.Call("GET", "/v1/deviation/summary", scaled_max).status,
            200);
  expect_counts(2, 1, "a summary over the memoized stream");
  ASSERT_EQ(stack.Call("GET", deviation_path, {}).status, 200);
  expect_counts(2, 2, "a first read under another (f, g)");

  const uint64_t second = stack.Ingest("s", QuestSnapshot(12));
  stack.Flush();
  ASSERT_EQ(stack.Call("GET", deviation_path, scaled_max).status, 200);
  expect_counts(2, 3, "the first read after a publish");
  ASSERT_EQ(stack.Call("GET", deviation_path, scaled_max).status, 200);
  expect_counts(3, 3, "its repeat");

  const std::map<std::string, std::string> forward = {
      {"left", HashHex(first)}, {"right", HashHex(second)}};
  ASSERT_EQ(stack.Call("POST", "/v1/compare", forward).status, 200);
  expect_counts(3, 4, "a first compare");
  ASSERT_EQ(stack.Call("POST", "/v1/compare", forward).status, 200);
  expect_counts(4, 4, "a repeat compare");
  ASSERT_EQ(stack.Call("POST", "/v1/compare",
                       {{"left", HashHex(second)}, {"right", HashHex(first)}})
                .status,
            200);
  expect_counts(4, 5, "the reversed pair");
  EXPECT_EQ(stack.Call("POST", "/v1/compare",
                       {{"left", HashHex(first)}, {"right", "00000000000000ff"}})
                .status,
            404);
  expect_counts(4, 5, "a compare of an unknown hash");
}

}  // namespace
}  // namespace focus::serve
