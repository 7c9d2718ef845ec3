// Laws pinning the 8-row lockstep routing batches (FlatTreeRouter::
// RouteRows and the CountRowRangesMaybeParallel drivers) bit-identical to
// row-at-a-time routing: every batched leaf equals both Route and the
// tree's own LeafIndexOf — under arbitrary batch widths 1..8 and gathered
// (non-contiguous, unsorted) row lists — and the dt measure scans and
// deviations are EXPECT_EQ-exact across forced batch-routing modes
// (ScopedBatchRoutingForTesting both ways, since tiny proptest trees
// would otherwise never take the batched product path) and serial vs
// pool sizes 1/2/4/8, with and without a focussing box.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/dt_deviation.h"
#include "core/flat_router.h"
#include "proptest/generators.h"
#include "proptest/proptest.h"

namespace focus::core {
namespace {

using proptest::Check;
using proptest::PropResult;
using proptest::Rng;

TEST(DtBatchLaws, RouteRowsMatchesRouteAndLeafIndexOf) {
  EXPECT_TRUE(Check<proptest::DtPair>(
      "dt/route-rows-matches-route", proptest::DtPairDomain(),
      [](const proptest::DtPair& pair) {
        const data::Dataset dataset = proptest::MaterializeDataset(pair.a);
        const dt::DecisionTree tree = proptest::BuildTree(pair.a, dataset);
        const FlatTreeRouter router(tree);

        // Row-at-a-time reference: the flat router agrees with the tree's
        // own traversal on every row.
        std::vector<int> reference(dataset.num_rows());
        for (int64_t row = 0; row < dataset.num_rows(); ++row) {
          reference[row] = router.Route(dataset.Row(row));
          if (reference[row] != tree.LeafIndexOf(dataset.Row(row)))
            return PropResult::Fail("Route != LeafIndexOf at row " +
                                    std::to_string(row));
        }

        // Contiguous batches of every width 1..kBatch, including the
        // short remainder batch at the end of the scan.
        for (int width = 1; width <= FlatTreeRouter::kBatch; ++width) {
          for (int64_t begin = 0; begin < dataset.num_rows();
               begin += width) {
            const int n = static_cast<int>(
                std::min<int64_t>(width, dataset.num_rows() - begin));
            int64_t rows[FlatTreeRouter::kBatch];
            for (int i = 0; i < n; ++i) rows[i] = begin + i;
            int leaves[FlatTreeRouter::kBatch];
            router.RouteRows(dataset, rows, n, leaves);
            for (int i = 0; i < n; ++i) {
              if (leaves[i] != reference[rows[i]])
                return PropResult::Fail(
                    "contiguous batch width " + std::to_string(width) +
                    " diverged at row " + std::to_string(rows[i]));
            }
          }
        }

        // Gathered batches: random unsorted row subsets, the shape the
        // focussed GCR scan produces after filtering a range.
        Rng rng(pair.a.gen.seed ^ (pair.b.gen.seed << 1) ^ 0x9e3779b9u);
        for (int trial = 0; trial < 32; ++trial) {
          const int n =
              static_cast<int>(rng.IntIn(1, FlatTreeRouter::kBatch));
          int64_t rows[FlatTreeRouter::kBatch];
          for (int i = 0; i < n; ++i) {
            rows[i] = rng.IntIn(0, dataset.num_rows() - 1);
          }
          int leaves[FlatTreeRouter::kBatch];
          router.RouteRows(dataset, rows, n, leaves);
          for (int i = 0; i < n; ++i) {
            if (leaves[i] != reference[rows[i]])
              return PropResult::Fail("gathered batch diverged at row " +
                                      std::to_string(rows[i]));
          }
        }
        return PropResult::Ok();
      },
      proptest::Config::FromEnv(10)));
}

TEST(DtBatchLaws, MeasuresExactAcrossPoolSizes) {
  EXPECT_TRUE(Check<proptest::DtPair>(
      "dt/batched-measures-pool-invariant", proptest::DtPairDomain(),
      [](const proptest::DtPair& pair) {
        const data::Dataset d1 = proptest::MaterializeDataset(pair.a);
        const data::Dataset d2 = proptest::MaterializeDataset(pair.b);
        const DtModel m1(proptest::BuildTree(pair.a, d1), d1);
        const DtModel m2(proptest::BuildTree(pair.b, d2), d2);
        const DtGcr gcr(m1, m2);

        Rng box_rng(pair.a.gen.seed + 7 * pair.b.gen.seed);
        const data::Box focus = proptest::GenBox(box_rng, d1.schema());

        // Row-at-a-time references: proptest trees are tiny, so kAuto
        // would never take the batched product path — pin the mode both
        // ways so every scan shape is exercised regardless of tree size.
        std::vector<double> serial;
        std::vector<double> serial_focus;
        std::vector<double> leaf_serial;
        {
          ScopedBatchRoutingForTesting row_mode(BatchRouting::kNever);
          serial = gcr.Measures(m1.tree(), m2.tree(), d1, std::nullopt);
          serial_focus = gcr.Measures(m1.tree(), m2.tree(), d1, focus);
          leaf_serial = DtMeasuresOverTree(m1.tree(), d1);
        }
        ScopedBatchRoutingForTesting batch_mode(BatchRouting::kAlways);
        if (gcr.Measures(m1.tree(), m2.tree(), d1, std::nullopt) != serial)
          return PropResult::Fail("batched GCR measures != row-at-a-time");
        if (gcr.Measures(m1.tree(), m2.tree(), d1, focus) != serial_focus)
          return PropResult::Fail(
              "batched focussed GCR measures != row-at-a-time");
        if (DtMeasuresOverTree(m1.tree(), d1) != leaf_serial)
          return PropResult::Fail("batched leaf measures != row-at-a-time");
        for (const int threads : {1, 2, 4, 8}) {
          common::ThreadPool pool(threads);
          // Integer counts merged in shard order: the sharded batched
          // scans must be EXACTLY the serial ones, not merely close.
          if (gcr.Measures(m1.tree(), m2.tree(), d1, std::nullopt, &pool) !=
              serial)
            return PropResult::Fail("GCR measures moved under pool " +
                                    std::to_string(threads));
          if (gcr.Measures(m1.tree(), m2.tree(), d1, focus, &pool) !=
              serial_focus)
            return PropResult::Fail(
                "focussed GCR measures moved under pool " +
                std::to_string(threads));
          if (DtMeasuresOverTree(m1.tree(), d1, &pool) != leaf_serial)
            return PropResult::Fail("leaf measures moved under pool " +
                                    std::to_string(threads));
        }

        DtDeviationOptions serial_options;
        const double deviation = DtDeviation(m1, d1, m2, d2, serial_options);
        common::ThreadPool pool(4);
        DtDeviationOptions pooled = serial_options;
        pooled.pool = &pool;
        if (DtDeviation(m1, d1, m2, d2, pooled) != deviation)
          return PropResult::Fail("pooled deviation != serial deviation");
        return PropResult::Ok();
      },
      proptest::Config::FromEnv(8)));
}

}  // namespace
}  // namespace focus::core
