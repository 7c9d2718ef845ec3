// Sharding equivalence laws: a sharded deployment must be OBSERVATIONALLY
// IDENTICAL to a single-node MonitorService — not approximately, but to
// the last bit of every double. Per-stream deviations trivially so (each
// stream lives wholly on one shard); cross-shard compares because the
// scatter-gather path composes the exact functions (LitsGcr-equivalent
// set_union + LitsExtendModel + LitsAggregateRegionDiffs) the single-node
// LitsDeviation composes; cross-stream summaries because both sides fold
// per-stream values through serve::AggregateSummary in canonical
// sorted-name order (FP addition is order-sensitive, so the order IS the
// contract). Checked for shard counts 1/2/4/8 over every (f,g).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/functions.h"
#include "core/lits_deviation.h"
#include "datagen/quest_gen.h"
#include "io/data_io.h"
#include "serve/api_util.h"
#include "serve/monitor_service.h"
#include "shard/shard_router.h"
#include "shard/shard_worker.h"
#include "shard/wire.h"

namespace focus::shard {
namespace {

constexpr int kShardCounts[] = {1, 2, 4, 8};
constexpr int kNumStreams = 10;

data::TransactionDb QuestDb(uint64_t seed, int num_transactions = 250) {
  datagen::QuestParams params;
  params.num_transactions = num_transactions;
  params.num_items = 50;
  params.num_patterns = 80;
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

std::string StreamName(int i) { return "stream-" + std::to_string(i); }

// Every (f, g) pair the wire can carry.
using serve::FgChoice;
constexpr FgChoice kFgCases[] = {
    {FgChoice::F::kAbs, FgChoice::G::kSum},
    {FgChoice::F::kAbs, FgChoice::G::kMax},
    {FgChoice::F::kScaled, FgChoice::G::kSum},
    {FgChoice::F::kScaled, FgChoice::G::kMax}};

// Large caches so no mined model is evicted mid-test (evictions would
// turn compares into 404s, not wrong answers).
serve::MonitorServiceOptions ServiceOptions() {
  serve::MonitorServiceOptions options;
  options.model_cache_capacity = 256;
  return options;
}

// The single-node oracle: one MonitorService holding every stream.
class SingleNode {
 public:
  explicit SingleNode(const data::TransactionDb& reference)
      : service_(ServiceOptions(), reference, nullptr) {
    for (int i = 0; i < kNumStreams; ++i) service_.AddStream(StreamName(i));
  }

  ~SingleNode() { service_.Shutdown(); }

  void Submit(int stream, const data::TransactionDb& db) {
    serve::Snapshot snapshot;
    snapshot.stream = StreamName(stream);
    snapshot.source = "laws";
    snapshot.db = db;
    ASSERT_EQ(service_.Ingest(std::move(snapshot), std::nullopt).status,
              serve::SubmitResult::kAccepted);
  }

  serve::MonitorService service_;
};

// A sharded deployment over in-process workers (LocalShardChannel runs
// the same frame codecs as the socket path, without the sockets).
class Sharded {
 public:
  Sharded(int num_shards, const data::TransactionDb& reference) {
    for (int i = 0; i < num_shards; ++i) {
      ShardWorkerOptions options;
      options.shard_index = static_cast<uint32_t>(i);
      options.service = ServiceOptions();
      workers_.push_back(
          std::make_unique<ShardWorker>(options, reference, nullptr));
      channels_.push_back(
          std::make_unique<LocalShardChannel>(workers_.back().get()));
      shards_.push_back(channels_.back().get());
    }
    router_ = std::make_unique<ShardRouter>(shards_);
  }

  ~Sharded() {
    for (auto& worker : workers_) worker->Stop();
  }

  void Flush() {
    for (auto& worker : workers_) worker->service().Flush();
  }

  ShardRouter& router() { return *router_; }

 private:
  std::vector<std::unique_ptr<ShardWorker>> workers_;
  std::vector<std::unique_ptr<LocalShardChannel>> channels_;
  std::vector<ShardChannel*> shards_;
  std::unique_ptr<ShardRouter> router_;
};

// Feeds the identical snapshot schedule to both sides: two snapshots for
// even streams, one for odd (so "latest processed" differs per stream),
// and returns each stream's final content hash from the sharded submits.
std::map<int, uint64_t> FeedBoth(SingleNode* single, Sharded* sharded) {
  std::map<int, uint64_t> hashes;
  for (int i = 0; i < kNumStreams; ++i) {
    const data::TransactionDb first = QuestDb(10 + i);
    single->Submit(i, first);
    SubmitResultBody result;
    std::string error;
    EXPECT_EQ(sharded->router().Submit(StreamName(i), "laws",
                                       Serialize(first), &result, &error),
              ShardRouter::Status::kOk)
        << error;
    EXPECT_EQ(result.status, 202);
    EXPECT_EQ(result.sequence, 0);
    hashes[i] = result.content_hash;
    if (i % 2 == 0) {
      const data::TransactionDb second = QuestDb(100 + i);
      single->Submit(i, second);
      EXPECT_EQ(sharded->router().Submit(StreamName(i), "laws",
                                         Serialize(second), &result, &error),
                ShardRouter::Status::kOk)
          << error;
      EXPECT_EQ(result.status, 202);
      EXPECT_EQ(result.sequence, 1);
      hashes[i] = result.content_hash;
    }
  }
  single->service_.Flush();
  sharded->Flush();
  return hashes;
}

TEST(LawsShard, PerStreamDeviationIdenticalToSingleNode) {
  const data::TransactionDb reference = QuestDb(1);
  for (const int num_shards : kShardCounts) {
    // A fresh oracle per shard count: CUSUM is sequential, so re-feeding
    // one long-lived single node would accumulate state the fresh sharded
    // deployment never saw.
    SingleNode single(reference);
    Sharded sharded(num_shards, reference);
    FeedBoth(&single, &sharded);
    for (int i = 0; i < kNumStreams; ++i) {
      for (const FgChoice fg : kFgCases) {
        const auto expected =
            single.service_.QueryDeviation(StreamName(i), fg);
        ASSERT_TRUE(expected.has_value());

        DeviationResultBody actual;
        std::string error;
        ASSERT_EQ(sharded.router().QueryDeviation(StreamName(i), fg, &actual,
                                                  &error),
                  ShardRouter::Status::kOk)
            << error;
        ASSERT_EQ(actual.found, 1);
        EXPECT_EQ(actual.has_deviation ? 1 : 0,
                  expected->has_deviation ? 1 : 0);
        // Bit-identical, not nearly-equal.
        EXPECT_EQ(actual.deviation, expected->deviation)
            << "shards=" << num_shards << " stream=" << i << " f="
            << fg.f_name() << " g=" << fg.g_name();
        EXPECT_EQ(actual.status.sequence, expected->status.sequence);
        EXPECT_EQ(actual.status.delta_star, expected->status.delta_star);
        EXPECT_EQ(actual.status.deviation, expected->status.deviation);
        EXPECT_EQ(actual.status.cusum, expected->status.cusum);
        EXPECT_EQ(actual.status.num_transactions,
                  expected->status.num_transactions);
      }
    }
  }
}

TEST(LawsShard, CompareIdenticalToSingleNodeIncludingCrossShard) {
  const data::TransactionDb reference = QuestDb(1);
  SingleNode single(reference);
  for (const int num_shards : kShardCounts) {
    Sharded sharded(num_shards, reference);
    const std::map<int, uint64_t> hashes = FeedBoth(&single, &sharded);

    auto single_compare = [&](uint64_t left, uint64_t right,
                              const core::DeviationFunction& fn) {
      const auto left_mined =
          single.service_.model_cache().LookupMined(left);
      const auto right_mined =
          single.service_.model_cache().LookupMined(right);
      EXPECT_TRUE(left_mined.has_value());
      EXPECT_TRUE(right_mined.has_value());
      return core::LitsDeviation(*left_mined->model,
                                 *left_mined->transactions,
                                 *right_mined->model,
                                 *right_mined->transactions, fn);
    };

    // All ordered pairs: covers same-shard pairs, cross-shard pairs, and
    // self-compare, under every (f,g).
    for (int a = 0; a < kNumStreams; ++a) {
      for (int b = 0; b < kNumStreams; ++b) {
        for (const FgChoice fg : kFgCases) {
          const double expected =
              single_compare(hashes.at(a), hashes.at(b), fg.function());

          double actual = -1.0;
          std::vector<uint64_t> missing;
          std::string error;
          ASSERT_EQ(sharded.router().Compare(hashes.at(a), hashes.at(b), fg,
                                             &actual, &missing, &error),
                    ShardRouter::Status::kOk)
              << error;
          EXPECT_EQ(actual, expected)
              << "shards=" << num_shards << " pair=(" << a << "," << b
              << ") f=" << fg.f_name() << " g=" << fg.g_name();
        }
      }
    }
  }
}

TEST(LawsShard, SummaryIdenticalToSingleNodeFold) {
  const data::TransactionDb reference = QuestDb(1);
  SingleNode single(reference);
  for (const int num_shards : kShardCounts) {
    Sharded sharded(num_shards, reference);
    FeedBoth(&single, &sharded);
    for (const FgChoice fg : kFgCases) {
      const core::DeviationFunction fn = fg.function();

      // The single-node fold, exactly as HandleSummary performs it.
      std::vector<serve::SummaryEntry> expected_entries;
      for (const std::string& name : single.service_.ListStreams()) {
        const auto deviation = single.service_.QueryDeviation(name, fg);
        ASSERT_TRUE(deviation.has_value());
        expected_entries.push_back(serve::SummaryEntry{
            name, deviation->has_deviation, deviation->deviation});
      }
      const serve::SummaryResult expected =
          serve::AggregateSummary(&expected_entries, fn.g);

      std::vector<serve::SummaryEntry> entries;
      serve::SummaryResult actual;
      std::string error;
      ASSERT_EQ(sharded.router().Summary(fg, &entries, &actual, &error),
                ShardRouter::Status::kOk)
          << error;
      EXPECT_EQ(actual.num_streams, expected.num_streams);
      EXPECT_EQ(actual.num_values, expected.num_values);
      EXPECT_EQ(actual.has_aggregate, expected.has_aggregate);
      EXPECT_EQ(actual.aggregate, expected.aggregate)
          << "shards=" << num_shards << " f=" << fg.f_name() << " g="
          << fg.g_name();
      ASSERT_EQ(entries.size(), expected_entries.size());
      for (size_t i = 0; i < entries.size(); ++i) {
        EXPECT_EQ(entries[i].stream, expected_entries[i].stream);
        EXPECT_EQ(entries[i].deviation, expected_entries[i].deviation);
      }
    }
  }
}

TEST(LawsShard, SequencesStayDensePerStreamAcrossShardCounts) {
  // Submitting k snapshots to a stream yields sequences 0..k-1 whatever
  // the shard count — the worker owns numbering, not the front end.
  const data::TransactionDb reference = QuestDb(1);
  const std::string snapshot = Serialize(QuestDb(2));
  for (const int num_shards : kShardCounts) {
    Sharded sharded(num_shards, reference);
    for (int64_t k = 0; k < 3; ++k) {
      SubmitResultBody result;
      std::string error;
      ASSERT_EQ(sharded.router().Submit("one-stream", "laws", snapshot,
                                        &result, &error),
                ShardRouter::Status::kOk)
          << error;
      EXPECT_EQ(result.status, 202);
      EXPECT_EQ(result.sequence, k) << "shards=" << num_shards;
    }
    sharded.Flush();
  }
}

}  // namespace
}  // namespace focus::shard
