// Differential oracles for the vertical (TID-bitmap) counting path: on
// every generated workload vertical counting must be BIT-IDENTICAL to the
// horizontal scan and to its parallel form at every pool size — integer
// counts equal, and relative supports equal as doubles (same integers
// divided by the same |D|). The same contract lifted through the stack:
// Apriori mining and the GCR-extension deviation must not change when
// handed a prebuilt index.
// Apriori's level 2 is pinned at the scale its pair counting targets:
// hundreds of frequent items, so tens of thousands of pairs.

#include <algorithm>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/lits_deviation.h"
#include "data/block_store.h"
#include "data/block_txn_db.h"
#include "data/vertical_index.h"
#include "datagen/quest_gen.h"
#include "itemsets/apriori.h"
#include "itemsets/fp_growth.h"
#include "itemsets/support_counter.h"
#include "proptest/generators.h"
#include "proptest/proptest.h"
#include "stats/rng.h"

namespace focus::core {
namespace {

using proptest::Check;
using proptest::PropResult;
using proptest::Rng;

constexpr int kPoolSizes[] = {1, 2, 4, 8};

TEST(LawsVertical, SupportCountsIdenticalToHorizontalAndAllPoolSizes) {
  EXPECT_TRUE(Check<proptest::LitsWorkload>(
      "vertical/support-counts-identical", proptest::LitsWorkloadDomain(),
      [](const proptest::LitsWorkload& workload) {
        const data::TransactionDb db = proptest::MaterializeDb(workload);
        const data::VerticalIndex index(db);

        Rng itemset_rng(workload.quest.seed + 211);
        std::vector<lits::Itemset> itemsets;
        const int count = static_cast<int>(itemset_rng.IntIn(0, 30));
        for (int i = 0; i < count; ++i) {
          itemsets.push_back(proptest::GenItemset(
              itemset_rng, workload.quest.num_items, 5));
        }
        const lits::SupportCounter counter(itemsets,
                                           workload.quest.num_items);
        const std::vector<int64_t> horizontal = counter.CountAbsolute(db);
        const std::vector<double> horizontal_rel = counter.CountRelative(db);

        if (counter.CountAbsolute(index) != horizontal)
          return PropResult::Fail("vertical absolute counts differ");
        if (counter.CountRelative(index) != horizontal_rel)
          return PropResult::Fail("vertical relative supports differ");
        for (const int threads : kPoolSizes) {
          common::ThreadPool pool(threads);
          if (counter.CountAbsoluteParallel(db, pool) != horizontal)
            return PropResult::Fail(
                "parallel absolute counts differ with " +
                std::to_string(threads) + " threads");
          if (counter.CountRelativeParallel(db, pool) != horizontal_rel)
            return PropResult::Fail(
                "parallel relative supports differ with " +
                std::to_string(threads) + " threads");
        }
        return PropResult::Ok();
      },
      proptest::Config::FromEnv(10)));
}

TEST(LawsVertical, AprioriWithIndexMinesTheSameModel) {
  EXPECT_TRUE(Check<proptest::LitsWorkload>(
      "vertical/apriori-index-identical", proptest::LitsWorkloadDomain(),
      [](const proptest::LitsWorkload& workload) {
        const data::TransactionDb db = proptest::MaterializeDb(workload);
        const data::VerticalIndex index(db);
        const lits::LitsModel plain = lits::Apriori(db, workload.apriori);
        const lits::LitsModel indexed =
            lits::Apriori(db, workload.apriori, &index);
        if (indexed.size() != plain.size())
          return PropResult::Fail("indexed model has different size");
        for (const auto& [itemset, support] : plain.supports()) {
          const auto it = indexed.supports().find(itemset);
          if (it == indexed.supports().end())
            return PropResult::Fail("indexed model missing " +
                                    itemset.ToString());
          if (it->second != support)  // bit-identical doubles
            return PropResult::Fail("support differs for " +
                                    itemset.ToString());
        }
        return PropResult::Ok();
      },
      proptest::Config::FromEnv(10)));
}

TEST(LawsVertical, LitsDeviationIdenticalWithPrebuiltIndexes) {
  EXPECT_TRUE(Check<proptest::LitsPair>(
      "vertical/deviation-index-identical", proptest::LitsPairDomain(),
      [](const proptest::LitsPair& pair) {
        const data::TransactionDb da = proptest::MaterializeDb(pair.a);
        const data::TransactionDb db = proptest::MaterializeDb(pair.b);
        const lits::LitsModel ma = proptest::Mine(pair.a, da);
        const lits::LitsModel mb = proptest::Mine(pair.b, db);
        const data::VerticalIndex ia(da);
        const data::VerticalIndex ib(db);

        // Every served (f, g): perfbench's replay computes its deviations
        // through indexes, the daemon by scanning.
        const std::vector<lits::Itemset> gcr = LitsGcr(ma, mb);
        for (const AggregateKind g :
             {AggregateKind::kSum, AggregateKind::kMax}) {
          for (const DiffFn& f : {AbsoluteDiff(), ScaledDiff()}) {
            DeviationFunction fn;
            fn.f = f;
            fn.g = g;
            const double horizontal = LitsDeviation(ma, da, mb, db, fn);
            const double vertical = LitsDeviation(ma, &ia, mb, &ib, fn);
            if (vertical != horizontal)  // bit-identical, not approximately
              return PropResult::Fail("indexed deviation differs");
            if (LitsDeviationOverRegions(gcr, &ia, &ib, fn) !=
                LitsDeviationOverRegions(gcr, da, db, fn))
              return PropResult::Fail(
                  "indexed over-regions deviation differs");
          }
        }
        return PropResult::Ok();
      },
      proptest::Config::FromEnv(8)));
}

// A model's supports() in iteration order: the itemsets, their exact
// supports, and the order the unordered map yields them in.
std::vector<std::pair<std::string, double>> SupportSequence(
    const lits::LitsModel& model) {
  std::vector<std::pair<std::string, double>> sequence;
  for (const auto& [itemset, support] : model.supports()) {
    sequence.emplace_back(itemset.ToString(), support);
  }
  return sequence;
}

// Mines `db` with Apriori from the in-memory database, a block-backed copy
// with small blocks and a vertical index, and expects one supports()
// sequence from all three. Apriori fills its model level by
// level in sorted order, so a model refilled in StructuralComponent()
// order must iterate the same way. FpGrowth, which never enumerates pairs,
// must find the same itemsets and supports. Returns the model.
lits::LitsModel ExpectAllSourcesMineTheSameModel(
    const data::TransactionDb& db, const lits::AprioriOptions& options,
    const std::string& context) {
  std::ostringstream bytes;
  data::BlockTransactionDbWriter writer(bytes, db.num_items(), 512);
  for (int64_t t = 0; t < db.num_transactions(); ++t) {
    writer.Add(db.Transaction(t));
  }
  writer.Finish();
  data::BlockStoreOptions block_options;
  block_options.block_size = 512;
  std::string error;
  const auto blocks = data::BlockTransactionDb::Open(
      std::make_unique<std::istringstream>(std::move(bytes).str()),
      block_options, &error);
  EXPECT_NE(blocks, nullptr) << error;
  if (blocks == nullptr) return {};
  EXPECT_GT(blocks->num_blocks(), 1) << context;

  const data::VerticalIndex flat(db);
  const lits::LitsModel model = lits::Apriori(db, options);
  const auto expected = SupportSequence(model);
  EXPECT_EQ(SupportSequence(lits::Apriori(data::TxnSourceRef(*blocks),
                                          options)),
            expected)
      << context << ", block-backed";
  EXPECT_EQ(SupportSequence(lits::Apriori(db, options, &flat)), expected)
      << context << ", flat index";

  lits::LitsModel refilled(options.min_support, db.num_transactions(),
                           db.num_items());
  for (const lits::Itemset& itemset : model.StructuralComponent()) {
    refilled.Add(itemset, model.SupportOr(itemset, -1.0));
  }
  EXPECT_EQ(SupportSequence(refilled), expected) << context << ", fill order";

  auto as_set = [](std::vector<std::pair<std::string, double>> sequence) {
    std::sort(sequence.begin(), sequence.end());
    return sequence;
  };
  EXPECT_EQ(as_set(SupportSequence(lits::FpGrowth(db, options))),
            as_set(expected))
      << context << ", FpGrowth";
  return model;
}

int64_t CountOfSize(const lits::LitsModel& model, int size) {
  return std::count_if(
      model.supports().begin(), model.supports().end(),
      [size](const auto& entry) { return entry.first.size() == size; });
}

TEST(LawsVertical, AprioriSourcesAgreeWithHundredsOfFrequentItems) {
  // The benchmark's snapshot shape: 2000 transactions over 2000 items,
  // mean length 10, 2000 patterns.
  datagen::QuestParams params;
  params.num_transactions = 2000;
  params.num_items = 2000;
  params.avg_transaction_length = 10;
  params.num_patterns = 2000;
  params.seed = 31;
  params.pattern_seed = 7;
  const data::TransactionDb db = datagen::GenerateQuest(params);

  for (const double min_support : {0.005, 0.01}) {
    for (const int max_size : {0, 1, 2, 3}) {
      for (const int64_t floor : {int64_t{2}, int64_t{25}}) {
        lits::AprioriOptions options;
        options.min_support = min_support;
        options.max_itemset_size = max_size;
        options.min_absolute_count = floor;
        const std::string context =
            "minsup " + std::to_string(min_support) + ", max size " +
            std::to_string(max_size) + ", floor " + std::to_string(floor);
        const lits::LitsModel model =
            ExpectAllSourcesMineTheSameModel(db, options, context);
        if (floor == 2) {
          EXPECT_GT(CountOfSize(model, 1), 200) << context;
        }
        if (max_size == 1) {
          EXPECT_EQ(CountOfSize(model, 2), 0) << context;
        } else if (floor == 2) {
          EXPECT_GT(CountOfSize(model, 2), 0) << context;
        }
      }
    }
  }
}

TEST(LawsVertical, AprioriSourcesAgreeWithNoPairsToCount) {
  // Item 0 is in every transaction; every other item is rare.
  data::TransactionDb db(50);
  for (int32_t t = 0; t < 400; ++t) {
    db.AddTransaction(std::vector<int32_t>{0, 1 + t % 49});
  }
  lits::AprioriOptions options;
  options.min_support = 0.5;
  const lits::LitsModel one =
      ExpectAllSourcesMineTheSameModel(db, options, "one frequent item");
  EXPECT_EQ(one.size(), 1);

  options.min_support = 1.0;
  options.min_absolute_count = 401;
  const lits::LitsModel none =
      ExpectAllSourcesMineTheSameModel(db, options, "no frequent item");
  EXPECT_EQ(none.size(), 0);
}

TEST(LawsVertical, AprioriSourcesAgreeWhenEveryItemIsFrequent) {
  // Each of 24 items joins a transaction with probability 1/2.
  constexpr int32_t kItems = 24;
  std::mt19937_64 rng = stats::MakeRng(5);
  std::bernoulli_distribution coin(0.5);
  data::TransactionDb db(kItems);
  for (int t = 0; t < 300; ++t) {
    std::vector<int32_t> items;
    for (int32_t item = 0; item < kItems; ++item) {
      if (coin(rng)) items.push_back(item);
    }
    db.AddTransaction(items);
  }
  lits::AprioriOptions options;
  options.min_support = 0.05;
  options.max_itemset_size = 3;
  const lits::LitsModel model =
      ExpectAllSourcesMineTheSameModel(db, options, "every item frequent");
  EXPECT_EQ(CountOfSize(model, 1), kItems);
  EXPECT_EQ(CountOfSize(model, 2), kItems * (kItems - 1) / 2);
}

}  // namespace
}  // namespace focus::core
