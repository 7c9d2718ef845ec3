// Differential oracles for serve::ModelCache: a cache hit must return a
// model indistinguishable from mining cold (the cache is a pure
// memoization of Apriori keyed by content hash), and LRU eviction under
// random access must never change WHAT is returned — only how often
// mining runs.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/lits_upper_bound.h"
#include "itemsets/apriori.h"
#include "proptest/generators.h"
#include "proptest/proptest.h"
#include "serve/model_cache.h"

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

}  // namespace
}  // namespace focus::serve
