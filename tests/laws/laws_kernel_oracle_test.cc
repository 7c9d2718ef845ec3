// The kernel oracle: ONE differential law swept over every counting
// kernel (horizontal scan, its parallel form at pool sizes 1/2/4/8, and
// VerticalIndex). The serial horizontal scan is the baseline; every other
// kernel must return EXACTLY the same integers (and the same doubles for
// relative supports and deviations — same integers divided by the same
// |D|). Workloads come from the proptest generators plus a fixed set of
// adversarial density fixtures: all-dense, all-sparse, run-heavy, empty
// items, and odd TID cardinalities and boundaries (4095–4097,
// 65535/65536) that leave partial words.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/lits_deviation.h"
#include "data/transaction_db.h"
#include "data/vertical_index.h"
#include "itemsets/apriori.h"
#include "itemsets/support_counter.h"
#include "proptest/generators.h"
#include "proptest/proptest.h"

namespace focus::core {
namespace {

using proptest::Check;
using proptest::PropResult;
using proptest::Rng;

constexpr int kPoolSizes[] = {1, 2, 4, 8};

// Checks the vertical path and every pool size of the parallel scan of
// `counter` against the horizontal baseline over `db`. Returns an empty
// string on success, a diagnostic on the first mismatch.
std::string CheckAllKernels(const lits::SupportCounter& counter,
                            const data::TransactionDb& db,
                            const data::VerticalIndex& flat,
                            const std::vector<int64_t>& horizontal,
                            const std::vector<double>& horizontal_rel) {
  if (counter.CountAbsolute(flat) != horizontal) {
    return "flat absolute counts differ";
  }
  if (counter.CountRelative(flat) != horizontal_rel) {
    return "flat relative supports differ";
  }
  for (const int threads : kPoolSizes) {
    common::ThreadPool pool(threads);
    if (counter.CountAbsoluteParallel(db, pool) != horizontal) {
      return "parallel counts differ with " + std::to_string(threads) +
             " threads";
    }
  }
  return "";
}

TEST(LawsKernelOracle, CountsIdenticalAcrossKernelsLevelsAndPools) {
  EXPECT_TRUE(Check<proptest::LitsWorkload>(
      "kernel-oracle/counts-identical", proptest::LitsWorkloadDomain(),
      [](const proptest::LitsWorkload& workload) {
        const data::TransactionDb db = proptest::MaterializeDb(workload);
        const data::VerticalIndex flat(db);

        Rng itemset_rng(workload.quest.seed + 977);
        std::vector<lits::Itemset> itemsets;
        const int count = static_cast<int>(itemset_rng.IntIn(0, 24));
        for (int i = 0; i < count; ++i) {
          itemsets.push_back(proptest::GenItemset(
              itemset_rng, workload.quest.num_items, 5));
        }
        const lits::SupportCounter counter(itemsets,
                                           workload.quest.num_items);
        const std::vector<int64_t> horizontal = counter.CountAbsolute(db);
        const std::vector<double> horizontal_rel = counter.CountRelative(db);

        const std::string failure =
            CheckAllKernels(counter, db, flat, horizontal, horizontal_rel);
        if (!failure.empty()) return PropResult::Fail(failure);
        return PropResult::Ok();
      },
      proptest::Config::FromEnv(8)));
}

TEST(LawsKernelOracle, DeviationsIdenticalAcrossKernelsAndLevels) {
  EXPECT_TRUE(Check<proptest::LitsPair>(
      "kernel-oracle/deviations-identical", proptest::LitsPairDomain(),
      [](const proptest::LitsPair& pair) {
        const data::TransactionDb da = proptest::MaterializeDb(pair.a);
        const data::TransactionDb db = proptest::MaterializeDb(pair.b);
        const lits::LitsModel ma = proptest::Mine(pair.a, da);
        const lits::LitsModel mb = proptest::Mine(pair.b, db);
        const data::VerticalIndex fa(da);
        const data::VerticalIndex fb(db);

        const DeviationFunction fn;  // (f_a, g_sum)
        const double horizontal = LitsDeviation(ma, da, mb, db, fn);
        const std::vector<lits::Itemset> gcr = LitsGcr(ma, mb);
        const double horizontal_regions =
            LitsDeviationOverRegions(gcr, da, db, fn);

        if (LitsDeviation(ma, &fa, mb, &fb, fn) != horizontal) {
          return PropResult::Fail("flat deviation differs");
        }
        if (LitsDeviationOverRegions(gcr, &fa, &fb, fn) !=
            horizontal_regions) {
          return PropResult::Fail("flat over-regions deviation differs");
        }
        return PropResult::Ok();
      },
      proptest::Config::FromEnv(6)));
}

// ------------------------------------------------------------ fixtures

// Fixture databases with hand-picked densities. Each returns a db plus a
// set of probe itemsets covering singles, pairs, and wider sets.
struct DensityFixture {
  std::string name;
  data::TransactionDb db;
  std::vector<lits::Itemset> itemsets;
};

data::TransactionDb DbFromItemTids(
    int32_t num_items, int64_t num_transactions,
    const std::vector<std::vector<int64_t>>& tids) {
  std::vector<std::vector<int32_t>> transactions(
      static_cast<size_t>(num_transactions));
  for (int32_t item = 0; item < static_cast<int32_t>(tids.size()); ++item) {
    for (int64_t t : tids[static_cast<size_t>(item)]) {
      transactions[static_cast<size_t>(t)].push_back(item);
    }
  }
  data::TransactionDb db(num_items);
  for (const auto& txn : transactions) db.AddTransaction(txn);
  return db;
}

std::vector<lits::Itemset> ProbeItemsets(int32_t num_items) {
  std::vector<lits::Itemset> itemsets;
  itemsets.push_back(lits::Itemset{});  // whole space
  std::vector<int32_t> all;
  for (int32_t item = 0; item < num_items; ++item) {
    itemsets.push_back(lits::Itemset({item}));
    all.push_back(item);
  }
  for (int32_t a = 0; a < num_items; ++a) {
    for (int32_t b = a + 1; b < num_items; ++b) {
      itemsets.push_back(lits::Itemset({a, b}));
    }
  }
  itemsets.push_back(lits::Itemset(std::move(all)));
  return itemsets;
}

std::vector<DensityFixture> DensityFixtures() {
  std::vector<DensityFixture> fixtures;

  {
    // All-dense: every item in (almost) every transaction — full words,
    // counts near |D|.
    constexpr int64_t kN = 70000;
    std::vector<std::vector<int64_t>> tids(4);
    for (int64_t t = 0; t < kN; ++t) {
      tids[0].push_back(t);
      tids[1].push_back(t);
      if (t % 2 == 0) tids[2].push_back(t);
      if (t % 3 != 0) tids[3].push_back(t);
    }
    fixtures.push_back(
        {"all-dense", DbFromItemTids(4, kN, tids), ProbeItemsets(4)});
  }
  {
    // All-sparse: a handful of scattered TIDs per item — almost every
    // word is zero.
    constexpr int64_t kN = 200000;
    std::vector<std::vector<int64_t>> tids(6);
    for (int32_t item = 0; item < 6; ++item) {
      for (int64_t j = 0; j < 40; ++j) {
        tids[static_cast<size_t>(item)].push_back(
            (item * 37 + j * 4813) % kN);
      }
      std::sort(tids[static_cast<size_t>(item)].begin(),
                tids[static_cast<size_t>(item)].end());
      tids[static_cast<size_t>(item)].erase(
          std::unique(tids[static_cast<size_t>(item)].begin(),
                      tids[static_cast<size_t>(item)].end()),
          tids[static_cast<size_t>(item)].end());
    }
    fixtures.push_back(
        {"all-sparse", DbFromItemTids(6, kN, tids), ProbeItemsets(6)});
  }
  {
    // Run-heavy: solid overlapping blocks spanning 65536-TID boundaries.
    constexpr int64_t kN = 150000;
    std::vector<std::vector<int64_t>> tids(4);
    for (int32_t item = 0; item < 4; ++item) {
      const int64_t begin = item * 20000;
      const int64_t end = begin + 50000;
      for (int64_t t = begin; t < end; ++t) {
        tids[static_cast<size_t>(item)].push_back(t);
      }
    }
    fixtures.push_back(
        {"run-heavy", DbFromItemTids(4, kN, tids), ProbeItemsets(4)});
  }
  {
    // Empty items: items 3 and 4 never occur; every itemset containing
    // them must count 0 on every kernel.
    constexpr int64_t kN = 5000;
    std::vector<std::vector<int64_t>> tids(5);
    for (int64_t t = 0; t < kN; t += 3) tids[0].push_back(t);
    for (int64_t t = 1; t < kN; t += 3) tids[1].push_back(t);
    for (int64_t t = 0; t < kN; t += 7) tids[2].push_back(t);
    fixtures.push_back(
        {"empty-items", DbFromItemTids(5, kN, tids), ProbeItemsets(5)});
  }
  {
    // Odd cardinalities: scattered 4095 / 4096 / 4097 TIDs plus 4097
    // CONTIGUOUS ones, so runs start and end inside words.
    constexpr int64_t kN = 16384;
    std::vector<std::vector<int64_t>> tids(4);
    for (int64_t i = 0; i < 4095; ++i) tids[0].push_back(2 * i);
    for (int64_t i = 0; i < 4096; ++i) tids[1].push_back(2 * i + 1);
    for (int64_t i = 0; i < 4097; ++i) tids[2].push_back(3 * i);
    for (int64_t i = 0; i < 4097; ++i) tids[3].push_back(6000 + i);
    fixtures.push_back({"promotion-boundary", DbFromItemTids(4, kN, tids),
                        ProbeItemsets(4)});
  }
  {
    // Power-of-two boundary: TIDs packed tight around 65535/65536 and
    // 131071, with |D| one past the last full word.
    constexpr int64_t kN = 131073;
    std::vector<std::vector<int64_t>> tids(3);
    tids[0] = {65535, 65536, 131071, 131072};
    for (int64_t t = 65000; t <= 66000; ++t) tids[1].push_back(t);
    for (int64_t t = 0; t < kN; t += 65536) tids[2].push_back(t);
    fixtures.push_back({"chunk-boundary", DbFromItemTids(3, kN, tids),
                        ProbeItemsets(3)});
  }
  return fixtures;
}

TEST(LawsKernelOracle, AdversarialDensityFixtures) {
  for (const DensityFixture& fixture : DensityFixtures()) {
    SCOPED_TRACE(fixture.name);
    const data::VerticalIndex flat(fixture.db);
    const lits::SupportCounter counter(fixture.itemsets,
                                       fixture.db.num_items());
    const std::vector<int64_t> horizontal = counter.CountAbsolute(fixture.db);
    const std::vector<double> horizontal_rel =
        counter.CountRelative(fixture.db);
    EXPECT_EQ(CheckAllKernels(counter, fixture.db, flat, horizontal,
                              horizontal_rel),
              "");
  }
}

}  // namespace
}  // namespace focus::core
