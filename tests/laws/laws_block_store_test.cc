// Backend-exactness laws for the out-of-core block store: every consumer
// of a data::TxnSourceRef must produce EXPECT_EQ-exact results whether
// the transactions come from the in-memory TransactionDb or from a
// BlockTransactionDb — across block sizes (4 KiB / 64 KiB / 1 MiB), cache
// budgets that force eviction mid-scan, and pool sizes 1/2/4/8. Every
// count is an integer and every derived double divides the same integers,
// so nothing here allows a tolerance. Pinned consumers: SupportCounter
// (serial + parallel) and CountSupports, VerticalIndex builds, Apriori
// mining, LitsDeviation and its focussed and per-region forms, bootstrap
// significance, sampling extraction (plain and pooled), the serving
// layer's content hash, and the two-stage change monitor.

#include <cstdint>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/functions.h"
#include "core/lits_deviation.h"
#include "core/monitor.h"
#include "core/significance.h"
#include "data/block_store.h"
#include "data/block_txn_db.h"
#include "data/sampling.h"
#include "data/transaction_db.h"
#include "data/txn_source.h"
#include "data/vertical_index.h"
#include "stats/rng.h"
#include "datagen/quest_gen.h"
#include "itemsets/apriori.h"
#include "itemsets/itemset.h"
#include "itemsets/support_counter.h"
#include "serve/model_cache.h"

namespace focus::data {
namespace {

TransactionDb MakeDb(int64_t num_transactions, int32_t num_items,
                     uint64_t seed, uint64_t pattern_seed = 0) {
  datagen::QuestParams params;
  params.num_transactions = num_transactions;
  params.num_items = num_items;
  params.avg_transaction_length = 8;
  params.num_patterns = 60;
  params.avg_pattern_length = 3;
  params.seed = seed;
  params.pattern_seed = pattern_seed;
  return datagen::GenerateQuest(params);
}

std::string WriteBlockBytes(const TransactionDb& db, int64_t block_size) {
  std::ostringstream out;
  BlockTransactionDbWriter writer(out, db.num_items(), block_size);
  for (int64_t t = 0; t < db.num_transactions(); ++t) {
    writer.Add(db.Transaction(t));
  }
  writer.Finish();
  return std::move(out).str();
}

std::unique_ptr<BlockTransactionDb> MustOpen(std::string bytes,
                                             const BlockStoreOptions& options) {
  std::string error;
  auto db = BlockTransactionDb::Open(
      std::make_unique<std::istringstream>(std::move(bytes)), options, &error);
  EXPECT_NE(db, nullptr) << error;
  return db;
}

void ExpectSameDb(const TransactionDb& a, const TransactionDb& b) {
  ASSERT_EQ(a.num_items(), b.num_items());
  ASSERT_EQ(a.num_transactions(), b.num_transactions());
  for (int64_t t = 0; t < a.num_transactions(); ++t) {
    const std::span<const int32_t> x = a.Transaction(t);
    const std::span<const int32_t> y = b.Transaction(t);
    ASSERT_EQ(std::vector<int32_t>(x.begin(), x.end()),
              std::vector<int32_t>(y.begin(), y.end()))
        << "transaction " << t;
  }
}

void ExpectSameModel(const lits::LitsModel& a, const lits::LitsModel& b) {
  EXPECT_EQ(a.min_support(), b.min_support());
  EXPECT_EQ(a.num_transactions(), b.num_transactions());
  EXPECT_EQ(a.num_items(), b.num_items());
  EXPECT_EQ(a.supports(), b.supports());
}

std::vector<lits::Itemset> ProbeItemsets(int32_t num_items) {
  std::vector<lits::Itemset> probes;
  for (int32_t i = 0; i < 10 && i < num_items; ++i) {
    probes.push_back(lits::Itemset{i});
  }
  probes.push_back(lits::Itemset{0, 1});
  probes.push_back(lits::Itemset{2, 5});
  probes.push_back(lits::Itemset{10, 11});
  probes.push_back(lits::Itemset{3, 7, 9});
  probes.push_back(lits::Itemset{1, 2, 3, 4});
  return probes;
}

const int64_t kBlockSizes[] = {int64_t{4} << 10, int64_t{64} << 10,
                               int64_t{1} << 20};

TEST(LawsBlockStore, CountsExactAcrossBlockSizesBudgetsAndPools) {
  const TransactionDb db = MakeDb(4000, 80, 101);
  // SupportCounter holds pointers into the probe vector; keep it alive.
  const std::vector<lits::Itemset> probes = ProbeItemsets(db.num_items());
  const lits::SupportCounter counter(probes, db.num_items());
  const std::vector<int64_t> ref_abs = counter.CountAbsolute(db);
  const std::vector<double> ref_rel = counter.CountRelative(db);

  bool saw_eviction = false;
  for (const int64_t block_size : kBlockSizes) {
    const std::string bytes = WriteBlockBytes(db, block_size);
    for (const int64_t budget : {int64_t{1}, int64_t{32} << 20}) {
      BlockStoreOptions options;
      options.cache_budget_bytes = budget;
      const auto block_db = MustOpen(bytes, options);
      ASSERT_NE(block_db, nullptr);
      const TxnSourceRef source(*block_db);

      EXPECT_EQ(counter.CountAbsolute(source), ref_abs);
      EXPECT_EQ(counter.CountRelative(source), ref_rel);

      for (const int num_threads : {1, 2, 4, 8}) {
        common::ThreadPool pool(num_threads);
        BlockStoreOptions pooled = options;
        pooled.pool = &pool;
        const auto pooled_db = MustOpen(bytes, pooled);
        ASSERT_NE(pooled_db, nullptr);
        const TxnSourceRef pooled_source(*pooled_db);
        EXPECT_EQ(counter.CountAbsoluteParallel(pooled_source, pool), ref_abs)
            << "block_size=" << block_size << " budget=" << budget
            << " threads=" << num_threads;
        EXPECT_EQ(counter.CountRelativeParallel(pooled_source, pool), ref_rel);
        saw_eviction = saw_eviction || pooled_db->cache_evictions() > 0;
      }
    }
  }
  // The 1-byte budget at the smallest block size must have churned.
  EXPECT_TRUE(saw_eviction);
}

TEST(LawsBlockStore, IndexBuildsExactAcrossBlockSizes) {
  const TransactionDb db = MakeDb(3000, 120, 103);
  const VerticalIndex vertical_ref(db);

  common::ThreadPool pool(4);
  for (const int64_t block_size : kBlockSizes) {
    BlockStoreOptions options;
    options.pool = &pool;
    options.cache_budget_bytes = 1;  // every scan decodes under churn
    const auto block_db = MustOpen(WriteBlockBytes(db, block_size), options);
    ASSERT_NE(block_db, nullptr);
    const TxnSourceRef source(*block_db);

    EXPECT_EQ(VerticalIndex(source), vertical_ref)
        << "block_size=" << block_size;
  }
}

TEST(LawsBlockStore, MiningDeviationAndSignificanceExact) {
  const TransactionDb d1 = MakeDb(1500, 80, 201, /*pattern_seed=*/777);
  const TransactionDb d2 = MakeDb(1500, 80, 202, /*pattern_seed=*/777);

  lits::AprioriOptions apriori;
  apriori.min_support = 0.02;
  apriori.max_itemset_size = 3;
  const core::DeviationFunction fn;

  const lits::LitsModel m1 = lits::Apriori(d1, apriori);
  const lits::LitsModel m2 = lits::Apriori(d2, apriori);
  const double dev_mem = core::LitsDeviation(m1, d1, m2, d2, fn);

  // A department of half the items focusses the deviation (§5.1).
  std::vector<int32_t> department;
  for (int32_t item = 0; item < d1.num_items() / 2; ++item) {
    department.push_back(item);
  }
  const core::ItemsetPredicate focus = core::WithinItems(department);
  const double focused_mem =
      core::LitsDeviationFocused(m1, d1, m2, d2, focus, fn);
  EXPECT_GT(focused_mem, 0.0);
  EXPECT_LT(focused_mem, dev_mem);
  const std::vector<core::LitsRegionDeviation> regions_mem =
      core::LitsPerRegionDeviations(m1, d1, m2, d2, fn.f);
  ASSERT_FALSE(regions_mem.empty());
  const std::vector<lits::Itemset> probes = ProbeItemsets(d1.num_items());
  const std::vector<double> supports_mem = lits::CountSupports(d1, probes);

  core::SignificanceOptions significance;
  significance.num_replicates = 5;
  const core::SignificanceResult sig_mem =
      core::LitsDeviationSignificance(d1, d2, apriori, fn, significance);

  common::ThreadPool pool(4);
  BlockStoreOptions options;
  options.pool = &pool;
  for (const int64_t block_size :
       {int64_t{4} << 10, int64_t{1} << 20}) {
    const auto b1 = MustOpen(WriteBlockBytes(d1, block_size), options);
    const auto b2 = MustOpen(WriteBlockBytes(d2, block_size), options);
    ASSERT_NE(b1, nullptr);
    ASSERT_NE(b2, nullptr);
    const TxnSourceRef s1(*b1);
    const TxnSourceRef s2(*b2);

    const lits::LitsModel bm1 = lits::Apriori(s1, apriori);
    const lits::LitsModel bm2 = lits::Apriori(s2, apriori);
    ExpectSameModel(m1, bm1);
    ExpectSameModel(m2, bm2);

    EXPECT_EQ(core::LitsDeviation(bm1, s1, bm2, s2, fn), dev_mem)
        << "block_size=" << block_size;
    EXPECT_EQ(core::LitsDeviationFocused(bm1, s1, bm2, s2, focus, fn),
              focused_mem)
        << "block_size=" << block_size;
    const std::vector<core::LitsRegionDeviation> regions_blk =
        core::LitsPerRegionDeviations(bm1, s1, bm2, s2, fn.f);
    ASSERT_EQ(regions_blk.size(), regions_mem.size());
    for (size_t i = 0; i < regions_mem.size(); ++i) {
      EXPECT_EQ(regions_blk[i].itemset, regions_mem[i].itemset);
      EXPECT_EQ(regions_blk[i].support1, regions_mem[i].support1);
      EXPECT_EQ(regions_blk[i].support2, regions_mem[i].support2);
      EXPECT_EQ(regions_blk[i].deviation, regions_mem[i].deviation);
    }
    EXPECT_EQ(lits::CountSupports(s1, probes), supports_mem)
        << "block_size=" << block_size;

    const core::SignificanceResult sig_blk =
        core::LitsDeviationSignificance(s1, s2, apriori, fn, significance);
    EXPECT_EQ(sig_blk.deviation, sig_mem.deviation);
    EXPECT_EQ(sig_blk.significance_percent, sig_mem.significance_percent);
  }
}

TEST(LawsBlockStore, SamplingPooledAndContentHashExact) {
  const TransactionDb d1 = MakeDb(1200, 80, 301);
  const TransactionDb d2 = MakeDb(900, 80, 302);

  common::ThreadPool pool(2);
  BlockStoreOptions options;
  options.pool = &pool;
  options.cache_budget_bytes = 1 << 12;
  const auto b1 = MustOpen(WriteBlockBytes(d1, int64_t{4} << 10), options);
  const auto b2 = MustOpen(WriteBlockBytes(d2, int64_t{4} << 10), options);
  ASSERT_NE(b1, nullptr);
  ASSERT_NE(b2, nullptr);
  const TxnSourceRef s1(*b1);
  const TxnSourceRef s2(*b2);

  std::mt19937_64 rng = stats::MakeRng(42);
  const std::vector<int64_t> indices = SampleIndicesWithReplacement(
      d1.num_transactions(), d1.num_transactions(), rng);
  ExpectSameDb(TakeTransactions(d1, indices), TakeTransactions(s1, indices));

  // Pooled extraction over the logical concatenation d1 ++ d2 equals
  // extraction from the materialized pool.
  TransactionDb pool_db(d1.num_items());
  for (int64_t t = 0; t < d1.num_transactions(); ++t) {
    pool_db.AddTransaction(d1.Transaction(t));
  }
  for (int64_t t = 0; t < d2.num_transactions(); ++t) {
    pool_db.AddTransaction(d2.Transaction(t));
  }
  const std::vector<int64_t> pooled_indices = SampleIndicesWithReplacement(
      pool_db.num_transactions(), pool_db.num_transactions(), rng);
  ExpectSameDb(TakeTransactions(pool_db, pooled_indices),
               TakeTransactionsPooled(s1, s2, pooled_indices));
  // Mixed backends pool too, and so do two in-memory operands.
  ExpectSameDb(TakeTransactions(pool_db, pooled_indices),
               TakeTransactionsPooled(d1, s2, pooled_indices));
  ExpectSameDb(TakeTransactions(pool_db, pooled_indices),
               TakeTransactionsPooled(d1, d2, pooled_indices));

  EXPECT_EQ(serve::TransactionDbContentHash(s1),
            serve::TransactionDbContentHash(d1));
}

TEST(LawsBlockStore, MonitorReportsExactAcrossBackends) {
  const TransactionDb reference = MakeDb(1200, 80, 401, /*pattern_seed=*/555);
  const TransactionDb snapshot = MakeDb(1200, 80, 402, /*pattern_seed=*/555);

  core::MonitorOptions options;
  options.apriori.min_support = 0.02;
  options.apriori.max_itemset_size = 3;
  options.calibration_replicates = 3;
  options.significance.num_replicates = 5;
  const core::LitsChangeMonitor monitor(reference, options);

  const core::MonitorReport mem = monitor.Inspect(snapshot);

  common::ThreadPool pool(4);
  BlockStoreOptions store;
  store.pool = &pool;
  store.cache_budget_bytes = 1 << 12;
  const auto block_snapshot =
      MustOpen(WriteBlockBytes(snapshot, int64_t{4} << 10), store);
  ASSERT_NE(block_snapshot, nullptr);
  const core::MonitorReport blk =
      monitor.Inspect(TxnSourceRef(*block_snapshot));

  EXPECT_EQ(blk.upper_bound, mem.upper_bound);
  EXPECT_EQ(blk.screened_out, mem.screened_out);
  EXPECT_EQ(blk.deviation, mem.deviation);
  EXPECT_EQ(blk.significance_percent, mem.significance_percent);
  EXPECT_EQ(blk.alert, mem.alert);
}

}  // namespace
}  // namespace focus::data
