// dt-model measure scans: row-at-a-time FlatTreeRouter::Route vs the
// 8-row lockstep RouteRows batches, the two scan shapes behind
// DtMeasuresOverTree and the GCR measure pass (the product picks per
// tree via FlatTreeRouter::PrefersBatchedRouting). Measured at BOTH
// regimes of that cutover: the paper's ~20-leaf
// tree, whose node array lives in L1 and where row-at-a-time wins, and a
// deep min_leaf=2 tree whose node array misses cache and where the 8
// parallel dependency chains hide node-load latency. The tree is induced
// from a sample and the FULL dataset routed through it — the monitoring
// shape (old model, new data). Default is a scaled-down size;
// FOCUS_FULL=1 routes 1M rows. Emits one JSON line (appended to
// $FOCUS_BENCH_JSON when set):
//   {"bench":"micro_dt_route","rows":N,"leaves":L,
//    "row_at_a_time_ms_per_pass":…,"batched_ms_per_pass":…,
//    "batched_parallel_ms_per_pass":…,"speedup_batched":…,
//    "big_leaves":L2,"big_row_at_a_time_ms_per_pass":…,
//    "big_batched_ms_per_pass":…,"speedup_batched_big":…,"checked":true}
// The FOCUS_CHECKs re-assert the bit-identity contract at bench scale:
// batched serial and batched sharded counts equal the row-at-a-time scan
// on both trees.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/flat_router.h"
#include "core/parallel_count.h"
#include "datagen/class_gen.h"
#include "tree/presorted_builder.h"

namespace focus {
namespace {

// The scan DtMeasuresOverTree ran before batching: one Route call per row
// through CountRowsMaybeParallel. Kept here as the before/after baseline.
std::vector<int64_t> CountRowAtATime(const core::FlatTreeRouter& router,
                                     const data::Dataset& dataset,
                                     int num_leaves, int num_classes,
                                     common::ThreadPool* pool) {
  return core::CountRowsMaybeParallel(
      dataset.num_rows(), static_cast<size_t>(num_leaves) * num_classes,
      pool,
      [&](int64_t row, std::vector<int64_t>& acc) {
        const int leaf = router.Route(dataset.Row(row));
        ++acc[static_cast<size_t>(leaf) * num_classes + dataset.Label(row)];
      });
}

std::vector<int64_t> CountBatched(const core::FlatTreeRouter& router,
                                  const data::Dataset& dataset,
                                  int num_leaves, int num_classes,
                                  common::ThreadPool* pool) {
  return core::CountRowRangesMaybeParallel(
      dataset.num_rows(), static_cast<size_t>(num_leaves) * num_classes,
      core::FlatTreeRouter::kBatch, pool,
      [&](int64_t begin, int64_t end, std::vector<int64_t>& acc) {
        int64_t rows[core::FlatTreeRouter::kBatch];
        const int n = static_cast<int>(end - begin);
        for (int i = 0; i < n; ++i) rows[i] = begin + i;
        int leaves[core::FlatTreeRouter::kBatch];
        router.RouteRows(dataset, rows, n, leaves);
        for (int i = 0; i < n; ++i) {
          ++acc[static_cast<size_t>(leaves[i]) * num_classes +
                dataset.Label(rows[i])];
        }
      });
}

int Run() {
  const int64_t n = bench::ScaledCount(20000, 1000000);
  bench::PrintHeader(
      "micro_dt_route",
      "dt measure scan: row-at-a-time routing vs 8-row lockstep batches",
      "same leaf counts either way; batching only overlaps the descents");

  datagen::ClassGenParams params = bench::PaperClassParams(
      n, datagen::ClassFunction::kF4, /*seed=*/42);
  const data::Dataset dataset = datagen::GenerateClassification(params);
  datagen::ClassGenParams inducing_params = params;
  inducing_params.num_rows = std::min<int64_t>(n, 20000);
  const data::Dataset inducing =
      datagen::GenerateClassification(inducing_params);
  dt::CartOptions cart;
  cart.max_depth = 8;
  cart.min_leaf_size = 50;
  const dt::DecisionTree tree = dt::BuildCartPresorted(inducing, cart);
  const core::FlatTreeRouter router(tree);
  const int num_classes = tree.schema().num_classes();
  std::printf("dataset: %lld rows, tree: %d leaves, depth %d\n",
              static_cast<long long>(dataset.num_rows()), tree.num_leaves(),
              tree.Depth());

  const int passes = 5;
  common::Timer timer;
  std::vector<int64_t> row_counts;
  for (int i = 0; i < passes; ++i) {
    row_counts = CountRowAtATime(router, dataset, tree.num_leaves(),
                                 num_classes, nullptr);
  }
  const double row_ms = timer.Millis() / passes;

  timer.Restart();
  std::vector<int64_t> batched;
  for (int i = 0; i < passes; ++i) {
    batched = CountBatched(router, dataset, tree.num_leaves(),
                           num_classes, nullptr);
  }
  const double batched_ms = timer.Millis() / passes;

  common::ThreadPool pool(4);
  timer.Restart();
  std::vector<int64_t> parallel;
  for (int i = 0; i < passes; ++i) {
    parallel = CountBatched(router, dataset, tree.num_leaves(),
                            num_classes, &pool);
  }
  const double parallel_ms = timer.Millis() / passes;

  FOCUS_CHECK(batched == row_counts);  // the bit-identical contract
  FOCUS_CHECK(parallel == row_counts);

  const double speedup = row_ms / batched_ms;
  std::printf("row-at-a-time %.3f ms/pass, batched %.3f ms/pass (%.2fx), "
              "batched+pool(4) %.3f ms/pass\n",
              row_ms, batched_ms, speedup, parallel_ms);

  // The other side of the PrefersBatchedRouting cutover: a deep
  // min_leaf=2 tree whose node array dwarfs the last-level cache, so
  // every descent is a chain of memory-latency loads. The paper's
  // functions are cleanly separable (CART stops at ~20 pure leaves
  // however lax the limits), so the big tree is induced from a
  // label-noised sample — the generator's perturbation factor — which
  // CART dutifully overfits into ~150k leaves (~12 MiB of nodes) at full
  // scale.
  dt::CartOptions big_cart;
  big_cart.max_depth = 48;
  big_cart.min_leaf_size = 2;
  big_cart.min_gain = 0.0;
  datagen::ClassGenParams big_inducing_params = params;
  big_inducing_params.label_noise = 0.25;
  const data::Dataset big_inducing =
      datagen::GenerateClassification(big_inducing_params);
  const dt::DecisionTree big_tree = dt::BuildCartPresorted(big_inducing,
                                                           big_cart);
  const core::FlatTreeRouter big_router(big_tree);
  std::printf("big tree: %d leaves, depth %d, %.1f KiB of nodes\n",
              big_tree.num_leaves(), big_tree.Depth(),
              static_cast<double>(big_router.nodes.size() *
                                  sizeof(core::FlatTreeRouter::Node)) /
                  1024.0);

  timer.Restart();
  std::vector<int64_t> big_row_counts;
  for (int i = 0; i < passes; ++i) {
    big_row_counts = CountRowAtATime(big_router, dataset,
                                     big_tree.num_leaves(), num_classes,
                                     nullptr);
  }
  const double big_row_ms = timer.Millis() / passes;

  timer.Restart();
  std::vector<int64_t> big_batched;
  for (int i = 0; i < passes; ++i) {
    big_batched = CountBatched(big_router, dataset, big_tree.num_leaves(),
                               num_classes, nullptr);
  }
  const double big_batched_ms = timer.Millis() / passes;
  FOCUS_CHECK(big_batched == big_row_counts);

  const double big_speedup = big_row_ms / big_batched_ms;
  std::printf("big tree: row-at-a-time %.3f ms/pass, batched %.3f ms/pass "
              "(%.2fx)\n",
              big_row_ms, big_batched_ms, big_speedup);

  char line[768];
  std::snprintf(
      line, sizeof(line),
      "{\"bench\":\"micro_dt_route\",\"rows\":%lld,\"leaves\":%d,"
      "\"row_at_a_time_ms_per_pass\":%.3f,\"batched_ms_per_pass\":%.3f,"
      "\"batched_parallel_ms_per_pass\":%.3f,\"speedup_batched\":%.2f,"
      "\"big_leaves\":%d,\"big_row_at_a_time_ms_per_pass\":%.3f,"
      "\"big_batched_ms_per_pass\":%.3f,\"speedup_batched_big\":%.2f,"
      "\"checked\":true}",
      static_cast<long long>(dataset.num_rows()), tree.num_leaves(), row_ms,
      batched_ms, parallel_ms, speedup, big_tree.num_leaves(), big_row_ms,
      big_batched_ms, big_speedup);
  bench::EmitBenchJson(line);
  return 0;
}

}  // namespace
}  // namespace focus

int main() { return focus::Run(); }
