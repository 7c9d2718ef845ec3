// Differential oracles for serve::ModelCache: a cache hit must return a
// model indistinguishable from mining cold (the cache is a pure
// memoization of Apriori keyed by content hash), LRU eviction under
// random access must never change WHAT is returned — only how often
// mining runs — and a deviation through an entry's lazily built index
// must equal one through an eager index and one by scanning.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/functions.h"
#include "core/lits_deviation.h"
#include "core/lits_upper_bound.h"
#include "data/vertical_index.h"
#include "itemsets/apriori.h"
#include "proptest/generators.h"
#include "proptest/proptest.h"
#include "serve/metrics.h"
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

}  // namespace
}  // namespace focus::serve
