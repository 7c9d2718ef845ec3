// Differential oracles: the parallel scan kernels must be BIT-IDENTICAL
// to their serial counterparts for every pool size, because shard
// boundaries depend only on (|D|, num_shards) and per-shard integer
// counts merge in shard order. Checked across generated workloads and
// pool sizes 1/2/4/8 (the PR-1 guarantee every later perf PR must keep).
// The same holds for the bootstrap replicates of the significance test,
// which run one per shard, each into its own slot, and each of which must
// equal the deviation between models mined from copied resamples.

#include <future>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/cluster_deviation.h"
#include "core/dt_deviation.h"
#include "core/lits_deviation.h"
#include "core/significance.h"
#include "data/block_store.h"
#include "data/block_txn_db.h"
#include "data/sampling.h"
#include "data/txn_source.h"
#include "itemsets/apriori.h"
#include "itemsets/support_counter.h"
#include "proptest/generators.h"
#include "proptest/proptest.h"
#include "stats/bootstrap.h"
#include "stats/rng.h"

namespace focus::core {
namespace {

using proptest::Check;
using proptest::PropResult;
using proptest::Rng;

constexpr int kPoolSizes[] = {1, 2, 4, 8};

TEST(DiffParallel, SupportCounterIdenticalAcrossPoolSizes) {
  EXPECT_TRUE(Check<proptest::LitsWorkload>(
      "diff/support-counter-parallel", proptest::LitsWorkloadDomain(),
      [](const proptest::LitsWorkload& workload) {
        const data::TransactionDb db = proptest::MaterializeDb(workload);
        Rng itemset_rng(workload.quest.seed + 101);
        std::vector<lits::Itemset> itemsets;
        const int count = static_cast<int>(itemset_rng.IntIn(0, 30));
        for (int i = 0; i < count; ++i) {
          itemsets.push_back(proptest::GenItemset(
              itemset_rng, workload.quest.num_items, 5));
        }
        const lits::SupportCounter counter(itemsets,
                                           workload.quest.num_items);
        const std::vector<int64_t> serial = counter.CountAbsolute(db);
        const std::vector<double> serial_rel = counter.CountRelative(db);
        for (const int threads : kPoolSizes) {
          common::ThreadPool pool(threads);
          if (counter.CountAbsoluteParallel(db, pool) != serial)
            return PropResult::Fail(
                "absolute counts differ with " + std::to_string(threads) +
                " threads");
          if (counter.CountRelativeParallel(db, pool) != serial_rel)
            return PropResult::Fail(
                "relative supports differ with " + std::to_string(threads) +
                " threads");
        }
        return PropResult::Ok();
      },
      proptest::Config::FromEnv(10)));
}

TEST(DiffParallel, DtMeasuresAndDeviationIdenticalAcrossPoolSizes) {
  EXPECT_TRUE(Check<proptest::DtPair>(
      "diff/dt-parallel-scan", proptest::DtPairDomain(),
      [](const proptest::DtPair& pair) {
        const data::Dataset d1 = proptest::MaterializeDataset(pair.a);
        const data::Dataset d2 = proptest::MaterializeDataset(pair.b);
        const DtModel m1(proptest::BuildTree(pair.a, d1), d1);
        const DtModel m2(proptest::BuildTree(pair.b, d2), d2);
        const DtGcr gcr(m1, m2);

        Rng box_rng(pair.a.gen.seed + 7);
        const std::optional<data::Box> focus =
            box_rng.Chance(0.5)
                ? std::optional<data::Box>(
                      proptest::GenBox(box_rng, d1.schema()))
                : std::nullopt;

        const std::vector<double> serial_measures =
            gcr.Measures(m1.tree(), m2.tree(), d1, focus);
        const std::vector<double> serial_tree =
            DtMeasuresOverTree(m1.tree(), d2);
        DtDeviationOptions serial_options;
        const double serial_dev = DtDeviation(m1, d1, m2, d2, serial_options);

        for (const int threads : kPoolSizes) {
          common::ThreadPool pool(threads);
          if (gcr.Measures(m1.tree(), m2.tree(), d1, focus, &pool) !=
              serial_measures)
            return PropResult::Fail("GCR measures differ with " +
                                    std::to_string(threads) + " threads");
          if (DtMeasuresOverTree(m1.tree(), d2, &pool) != serial_tree)
            return PropResult::Fail("tree measures differ with " +
                                    std::to_string(threads) + " threads");
          DtDeviationOptions pooled = serial_options;
          pooled.pool = &pool;
          if (DtDeviation(m1, d1, m2, d2, pooled) != serial_dev)
            return PropResult::Fail("deviation differs with " +
                                    std::to_string(threads) + " threads");
        }
        return PropResult::Ok();
      },
      proptest::Config::FromEnv(6)));
}

TEST(DiffParallel, ClusterDeviationIdenticalAcrossPoolSizes) {
  EXPECT_TRUE(Check<proptest::ClusterPair>(
      "diff/cluster-parallel-scan", proptest::ClusterPairDomain(),
      [](const proptest::ClusterPair& pair) {
        const data::Dataset d1 = proptest::MaterializeBlobs(pair.a);
        const data::Dataset d2 = proptest::MaterializeBlobs(pair.b);
        const cluster::ClusterModel m1 = proptest::MineCluster(pair.a, d1);
        const cluster::ClusterModel m2 = proptest::MineCluster(pair.b, d2);

        Rng box_rng(pair.a.seed + 13);
        ClusterDeviationOptions options;
        if (box_rng.Chance(0.5)) {
          options.focus =
              proptest::GenBox(box_rng, proptest::ClusterSchema(pair.a));
        }
        const double serial = ClusterDeviation(m1, d1, m2, d2, options);
        for (const int threads : kPoolSizes) {
          common::ThreadPool pool(threads);
          ClusterDeviationOptions pooled = options;
          pooled.pool = &pool;
          if (ClusterDeviation(m1, d1, m2, d2, pooled) != serial)
            return PropResult::Fail("cluster deviation differs with " +
                                    std::to_string(threads) + " threads");
        }
        return PropResult::Ok();
      },
      proptest::Config::FromEnv(8)));
}

TEST(DiffParallel, SharedPoolReusedAcrossCallsStaysIdentical) {
  // One long-lived pool serving many scans (the serving-layer usage
  // pattern) must behave exactly like fresh pools per call.
  EXPECT_TRUE(Check<proptest::LitsPair>(
      "diff/shared-pool-reuse", proptest::LitsPairDomain(),
      [](const proptest::LitsPair& pair) {
        const data::TransactionDb da = proptest::MaterializeDb(pair.a);
        const data::TransactionDb db = proptest::MaterializeDb(pair.b);
        const lits::LitsModel ma = proptest::Mine(pair.a, da);
        const lits::LitsModel mb = proptest::Mine(pair.b, db);
        const std::vector<lits::Itemset> gcr = LitsGcr(ma, mb);
        if (gcr.empty()) return PropResult::Ok();
        const lits::SupportCounter counter(gcr, da.num_items());
        common::ThreadPool shared(3);
        const std::vector<int64_t> first =
            counter.CountAbsoluteParallel(da, shared);
        for (int repeat = 0; repeat < 3; ++repeat) {
          if (counter.CountAbsoluteParallel(da, shared) != first)
            return PropResult::Fail("repeat scan on a shared pool differed");
        }
        if (counter.CountAbsolute(da) != first)
          return PropResult::Fail("shared-pool scan differs from serial");
        return PropResult::Ok();
      },
      proptest::Config::FromEnv(8)));
}

// `db` as a block-backed source with `options`.
std::unique_ptr<data::BlockTransactionDb> OpenBlocks(
    const data::TransactionDb& db, const data::BlockStoreOptions& options) {
  std::ostringstream out;
  data::BlockTransactionDbWriter writer(out, db.num_items(),
                                        options.block_size);
  for (int64_t t = 0; t < db.num_transactions(); ++t) {
    writer.Add(db.Transaction(t));
  }
  writer.Finish();
  std::string error;
  auto blocks = data::BlockTransactionDb::Open(
      std::make_unique<std::istringstream>(std::move(out).str()), options,
      &error);
  EXPECT_NE(blocks, nullptr) << error;
  return blocks;
}

// Stage 2's null distribution at pool width: with a pool, LitsNullDeviations
// draws each batch of pool width + 1 replicates in the serial rng order,
// then runs them one per shard. The vector and sig% must equal the serial
// loop's for every pool size, for in-memory and block-backed operands, when
// called from inside tasks of the same pool, and for 1 replicate, one full
// batch and a count that leaves a partial last batch.
TEST(DiffParallel, LitsNullDeviationsIdenticalAcrossPoolSizes) {
  EXPECT_TRUE(Check<proptest::LitsWorkload>(
      "diff/lits-null-deviations-parallel", proptest::LitsWorkloadDomain(),
      [](const proptest::LitsWorkload& workload) {
        // d2: the same universe, other draws, another size.
        proptest::LitsWorkload other = workload;
        other.quest.seed += 1;
        other.quest.num_transactions =
            workload.quest.num_transactions / 2 + 3;
        const data::TransactionDb d1 = proptest::MaterializeDb(workload);
        const data::TransactionDb d2 = proptest::MaterializeDb(other);
        Rng fn_rng(workload.quest.seed + 29);
        DeviationFunction fn;
        if (fn_rng.Chance(0.5)) fn.f = ScaledDiff();
        if (fn_rng.Chance(0.5)) fn.g = AggregateKind::kMax;
        const double observed =
            LitsDeviation(proptest::Mine(workload, d1), d1,
                          proptest::Mine(workload, d2), d2, fn);

        // 4 KiB blocks, so rows span blocks, behind a cache smaller than
        // either operand: concurrent replicates share and evict it.
        common::ThreadPool readahead(2);
        data::BlockStoreOptions store;
        store.block_size = int64_t{4} << 10;
        store.cache_budget_bytes = int64_t{8} << 10;
        store.pool = &readahead;
        const auto b1 = OpenBlocks(d1, store);
        const auto b2 = OpenBlocks(d2, store);
        if (b1 == nullptr || b2 == nullptr) {
          return PropResult::Fail("block store did not open");
        }
        const std::pair<data::TxnSourceRef, data::TxnSourceRef> operands[] = {
            {data::TxnSourceRef(d1), data::TxnSourceRef(d2)},
            {data::TxnSourceRef(*b1), data::TxnSourceRef(*b2)}};
        const char* const backend_names[] = {"memory", "blocks"};

        SignificanceOptions options;
        options.seed = workload.quest.seed;
        std::map<int, std::vector<double>> serial;  // by replicate count
        for (const int threads : kPoolSizes) {
          common::ThreadPool pool(threads);
          for (const int replicates :
               {1, threads + 1, 2 * (threads + 1) + 1}) {
            options.num_replicates = replicates;
            options.pool = nullptr;
            if (serial.count(replicates) == 0) {
              serial[replicates] = LitsNullDeviations(
                  operands[0].first, operands[0].second, workload.apriori,
                  fn, options);
            }
            const std::vector<double>& expected = serial[replicates];
            const double expected_sig =
                stats::SignificancePercent(observed, expected);
            for (int backend = 0; backend < 2; ++backend) {
              const auto [s1, s2] = operands[backend];
              const std::string where =
                  std::string(backend_names[backend]) + ", " +
                  std::to_string(replicates) + " replicates, " +
                  std::to_string(threads) + " threads";
              std::vector<std::vector<double>> runs;
              runs.push_back(
                  LitsNullDeviations(s1, s2, workload.apriori, fn, options));
              options.pool = &pool;
              runs.push_back(
                  LitsNullDeviations(s1, s2, workload.apriori, fn, options));
              // Two calls from inside tasks of the same pool at once, as
              // two streams' drain jobs make them.
              std::vector<std::future<std::vector<double>>> nested;
              for (int call = 0; call < 2; ++call) {
                nested.push_back(pool.Submit([&, s1 = s1, s2 = s2]() {
                  return LitsNullDeviations(s1, s2, workload.apriori, fn,
                                            options);
                }));
              }
              for (auto& call : nested) runs.push_back(call.get());
              options.pool = nullptr;
              for (const std::vector<double>& run : runs) {
                if (run != expected) {
                  return PropResult::Fail("null deviations differ (" + where +
                                          ")");
                }
                if (stats::SignificancePercent(observed, run) !=
                    expected_sig) {
                  return PropResult::Fail("sig% differs (" + where + ")");
                }
              }
            }
          }
        }
        return PropResult::Ok();
      },
      proptest::Config::FromEnv(6)));
}

// The oracle of the counting kernel: LitsNullDeviations' replicates, each
// composed the way the paper states it and perfbench's replay copies it.
// Draw |d1| then |d2| pool indices, copy both resamples out of d1 ++ d2,
// mine each with Apriori, and take LitsDeviation over their GCR. Per
// replicate, `three_itemsets` counts the mined models that hold an itemset
// of size 3 or more, and `empty` those that hold nothing.
struct MinedReplicates {
  std::vector<double> deviations;
  std::vector<int> three_itemsets;
  std::vector<int> empty;
};

MinedReplicates MineReplicates(const data::TransactionDb& d1,
                               const data::TransactionDb& d2,
                               const lits::AprioriOptions& apriori,
                               const DeviationFunction& fn,
                               const SignificanceOptions& options) {
  const int64_t n1 = d1.num_transactions();
  const int64_t n2 = d2.num_transactions();
  std::mt19937_64 rng = stats::MakeRng(options.seed);
  MinedReplicates mined;
  for (int r = 0; r < options.num_replicates; ++r) {
    const std::vector<int64_t> draw1 =
        data::SampleIndicesWithReplacement(n1 + n2, n1, rng);
    const std::vector<int64_t> draw2 =
        data::SampleIndicesWithReplacement(n1 + n2, n2, rng);
    const data::TransactionDb b1 = data::TakeTransactionsPooled(d1, d2, draw1);
    const data::TransactionDb b2 = data::TakeTransactionsPooled(d1, d2, draw2);
    const lits::LitsModel m1 = lits::Apriori(b1, apriori);
    const lits::LitsModel m2 = lits::Apriori(b2, apriori);
    mined.deviations.push_back(LitsDeviation(m1, b1, m2, b2, fn));
    int three = 0;
    for (const lits::LitsModel* model : {&m1, &m2}) {
      for (const auto& [itemset, support] : model->supports()) {
        if (itemset.size() >= 3) {
          ++three;
          break;
        }
      }
    }
    mined.three_itemsets.push_back(three);
    mined.empty.push_back((m1.size() == 0) + (m2.size() == 0));
  }
  return mined;
}

// The four served (f, g) pairs, and chi-squared.
std::vector<std::pair<std::string, DeviationFunction>> OracleFunctions() {
  return {{"abs/sum", {AbsoluteDiff(), AggregateKind::kSum}},
          {"abs/max", {AbsoluteDiff(), AggregateKind::kMax}},
          {"scaled/sum", {ScaledDiff(), AggregateKind::kSum}},
          {"scaled/max", {ScaledDiff(), AggregateKind::kMax}},
          {"chi2/sum", {ChiSquaredDiff(), AggregateKind::kSum}}};
}

// Where `counted` (LitsNullDeviations' vector) first differs from the
// mined oracle's, or "" when every replicate is equal.
std::string FirstMismatch(const std::vector<double>& counted,
                          const MinedReplicates& mined) {
  if (counted.size() != mined.deviations.size()) return "replicate count";
  for (size_t r = 0; r < counted.size(); ++r) {
    if (counted[r] != mined.deviations[r]) {
      std::ostringstream out;
      out.precision(17);
      out << "replicate " << r << ": counted " << counted[r] << ", mined "
          << mined.deviations[r];
      return out.str();
    }
  }
  return "";
}

// Stage 2 from counts: every replicate of LitsNullDeviations equals the
// deviation between the models Apriori mines from its two copied
// resamples, for max_itemset_size 0 to 3, the default and a higher
// min_absolute_count, |d1| != |d2|, every served (f, g) plus chi-squared,
// and d2 in memory or block-backed behind a cache smaller than itself.
TEST(DiffParallel, LitsNullDeviationsEqualMinedReplicates) {
  common::ThreadPool readahead(2);
  data::BlockStoreOptions store;
  store.block_size = int64_t{4} << 10;
  store.cache_budget_bytes = int64_t{8} << 10;
  store.pool = &readahead;
  const auto functions = OracleFunctions();
  int replicates_with_three_itemsets = 0;
  EXPECT_TRUE(Check<proptest::LitsWorkload>(
      "diff/lits-null-deviations-mined", proptest::LitsWorkloadDomain(),
      [&](const proptest::LitsWorkload& workload) {
        proptest::LitsWorkload other = workload;
        other.quest.seed += 1;
        other.quest.num_transactions =
            workload.quest.num_transactions / 2 + 3;
        const data::TransactionDb d1 = proptest::MaterializeDb(workload);
        const data::TransactionDb d2 = proptest::MaterializeDb(other);
        const auto b2 = OpenBlocks(d2, store);
        if (b2 == nullptr) return PropResult::Fail("block store did not open");
        const std::pair<data::TxnSourceRef, const char*> operands[] = {
            {data::TxnSourceRef(d2), "memory"},
            {data::TxnSourceRef(*b2), "blocks"}};

        SignificanceOptions options;
        options.seed = workload.quest.seed;
        options.num_replicates = 4;
        for (int max_size = 0; max_size <= 3; ++max_size) {
          for (size_t f = 0; f < functions.size(); ++f) {
            const auto& [fn_name, fn] = functions[f];
            lits::AprioriOptions apriori = workload.apriori;
            apriori.max_itemset_size = max_size;
            apriori.min_absolute_count = (max_size + f) % 2 == 0 ? 2 : 5;
            const MinedReplicates mined =
                MineReplicates(d1, d2, apriori, fn, options);
            for (int three : mined.three_itemsets) {
              replicates_with_three_itemsets += three > 0;
            }
            for (const auto& [s2, backend] : operands) {
              const std::string mismatch = FirstMismatch(
                  LitsNullDeviations(d1, s2, apriori, fn, options), mined);
              if (!mismatch.empty()) {
                return PropResult::Fail(
                    std::string(backend) + ", " + fn_name +
                    ", max_itemset_size " + std::to_string(max_size) +
                    ", min_absolute_count " +
                    std::to_string(apriori.min_absolute_count) + ": " +
                    mismatch);
              }
            }
          }
        }
        return PropResult::Ok();
      },
      proptest::Config::FromEnv(12)));
  // The generated workloads must reach level 3 somewhere, or the law says
  // nothing about the bucketed probe.
  EXPECT_GT(replicates_with_three_itemsets, 0);
}

// `rows` as a database over `num_items` items.
data::TransactionDb Db(int32_t num_items,
                       const std::vector<std::vector<int32_t>>& rows) {
  data::TransactionDb db(num_items);
  for (const std::vector<int32_t>& row : rows) db.AddTransaction(row);
  return db;
}

// No item reaches its threshold in either resample: every pool row holds
// an item of its own, which a resample would have to draw for half its
// rows. Both models are empty, the GCR has no region, and every replicate
// reads 0.
TEST(DiffParallel, LitsNullDeviationsEqualMinedReplicatesWhenNothingIsFrequent) {
  std::vector<std::vector<int32_t>> rows1;
  std::vector<std::vector<int32_t>> rows2;
  for (int32_t t = 0; t < 30; ++t) rows1.push_back({t});
  for (int32_t t = 30; t < 41; ++t) rows2.push_back({t});
  const data::TransactionDb d1 = Db(41, rows1);
  const data::TransactionDb d2 = Db(41, rows2);
  lits::AprioriOptions apriori;
  apriori.min_support = 0.5;
  SignificanceOptions options;
  options.num_replicates = 8;
  for (const auto& [name, fn] : OracleFunctions()) {
    const MinedReplicates mined = MineReplicates(d1, d2, apriori, fn, options);
    const std::vector<double> counted =
        LitsNullDeviations(d1, d2, apriori, fn, options);
    ASSERT_EQ(counted.size(), mined.deviations.size());
    for (int r = 0; r < options.num_replicates; ++r) {
      EXPECT_EQ(counted[r], mined.deviations[r]) << name << ", replicate " << r;
      EXPECT_EQ(mined.empty[r], 2) << name << ", replicate " << r;
      EXPECT_EQ(counted[r], 0.0) << name << ", replicate " << r;
    }
  }
}

// Only one resample of a replicate mines a 3-itemset: {0, 1, 2} sits in 4
// of the pool's 66 rows, so the 60-row resample usually reaches its
// threshold of 3 and the 6-row one rarely does. Its count in the other
// resample must still be the one the GCR extension takes.
TEST(DiffParallel, LitsNullDeviationsEqualMinedReplicatesWhenOneSideHasThree) {
  std::vector<std::vector<int32_t>> rows1;
  std::vector<std::vector<int32_t>> rows2;
  for (int32_t t = 0; t < 60; ++t) {
    rows1.push_back({t % 3, 3 + t % 5, t % 2 == 0 ? 0 : 8});
  }
  for (int32_t t = 0; t < 6; ++t) {
    rows2.push_back(t < 4 ? std::vector<int32_t>{0, 1, 2, 7}
                          : std::vector<int32_t>{1, 2, 9});
  }
  const data::TransactionDb d1 = Db(10, rows1);
  const data::TransactionDb d2 = Db(10, rows2);
  lits::AprioriOptions apriori;
  apriori.min_support = 0.05;
  apriori.min_absolute_count = 3;
  SignificanceOptions options;
  options.num_replicates = 24;
  for (const auto& [name, fn] : OracleFunctions()) {
    const MinedReplicates mined = MineReplicates(d1, d2, apriori, fn, options);
    const std::vector<double> counted =
        LitsNullDeviations(d1, d2, apriori, fn, options);
    ASSERT_EQ(counted.size(), mined.deviations.size());
    int one_sided = 0;
    for (int r = 0; r < options.num_replicates; ++r) {
      EXPECT_EQ(counted[r], mined.deviations[r]) << name << ", replicate " << r;
      one_sided += mined.three_itemsets[r] == 1;
    }
    EXPECT_GT(one_sided, 0) << name;
  }
}

}  // namespace
}  // namespace focus::core
