#include "core/dt_deviation.h"

#include <algorithm>

#include "common/check.h"
#include "core/flat_router.h"
#include "core/parallel_count.h"
#include "tree/leaf_regions.h"

namespace focus::core {
namespace {

// Leaf pairs route through the dense array as long as it stays under
// 16 MiB of int32; beyond that (trees with tens of thousands of leaves
// each) the hash map bounds memory instead.
constexpr int64_t kDenseRouterMaxCells = int64_t{1} << 22;

}  // namespace

DtModel::DtModel(dt::DecisionTree tree, const data::Dataset& inducing_dataset)
    : tree_(std::move(tree)) {
  FOCUS_CHECK(tree_.schema() == inducing_dataset.schema());
  leaf_boxes_ = dt::ExtractLeafBoxes(tree_);
  measures_ = DtMeasuresOverTree(tree_, inducing_dataset);
  num_rows_ = inducing_dataset.num_rows();
}

DtGcr::DtGcr(const DtModel& m1, const DtModel& m2)
    : leaves2_(m2.num_leaves()), num_classes_(m1.num_classes()) {
  FOCUS_CHECK(m1.tree().schema() == m2.tree().schema())
      << "dt-models must share an attribute space";
  const data::Schema& schema = m1.tree().schema();
  const int64_t total_pairs =
      static_cast<int64_t>(m1.num_leaves()) * m2.num_leaves();
  regions_.reserve(static_cast<size_t>(std::min<int64_t>(total_pairs, 4096)));
  const bool dense = total_pairs <= kDenseRouterMaxCells;
  if (dense) dense_.assign(static_cast<size_t>(total_pairs), -1);
  for (int l1 = 0; l1 < m1.num_leaves(); ++l1) {
    for (int l2 = 0; l2 < m2.num_leaves(); ++l2) {
      data::Box intersection = m1.leaf_box(l1).Intersect(m2.leaf_box(l2));
      if (intersection.IsEmpty(schema)) continue;
      const int64_t cell = static_cast<int64_t>(l1) * leaves2_ + l2;
      if (dense) {
        dense_[static_cast<size_t>(cell)] = static_cast<int>(regions_.size());
      } else {
        index_[cell] = static_cast<int>(regions_.size());
      }
      regions_.push_back({l1, l2, std::move(intersection)});
    }
  }
}

int DtGcr::IndexOf(int leaf1, int leaf2) const {
  const int64_t cell = static_cast<int64_t>(leaf1) * leaves2_ + leaf2;
  if (!dense_.empty()) return dense_[static_cast<size_t>(cell)];
  const auto it = index_.find(cell);
  return it == index_.end() ? -1 : it->second;
}

std::vector<double> DtGcr::Measures(const dt::DecisionTree& t1,
                                    const dt::DecisionTree& t2,
                                    const data::Dataset& dataset,
                                    const std::optional<data::Box>& focus,
                                    common::ThreadPool* pool) const {
  const data::Schema& schema = t1.schema();
  // Flatten both trees once per scan, then route every row through both in
  // one fused loop: two node-array walks plus one dense-array (or hash,
  // for huge leaf products) region lookup per row. Trees big enough to
  // miss cache route in 8-row lockstep batches instead, so the dependent
  // node loads of 8 descents overlap (flat_router.h explains the
  // cutover). Under focussing, each batch gathers only the in-R rows
  // before routing — filtered rows cost one Contains probe, never a
  // descent. Both shapes tally identical integer counts, which
  // laws_dt_batch_test pins with each routing mode forced.
  const FlatTreeRouter router1(t1);
  const FlatTreeRouter router2(t2);
  const int32_t* dense = dense_.empty() ? nullptr : dense_.data();
  const data::Box* focus_box = focus.has_value() ? &*focus : nullptr;
  const auto tally = [&](int l1, int l2, int64_t row,
                         std::vector<int64_t>& acc) {
    const int64_t cell = static_cast<int64_t>(l1) * leaves2_ + l2;
    const int region = dense != nullptr ? dense[static_cast<size_t>(cell)]
                                        : IndexOf(l1, l2);
    FOCUS_CHECK_GE(region, 0) << "tuple routed to empty GCR region";
    ++acc[static_cast<size_t>(region) * num_classes_ + dataset.Label(row)];
  };
  std::vector<int64_t> counts;
  if (router1.PrefersBatchedRouting() || router2.PrefersBatchedRouting()) {
    counts = CountRowRangesMaybeParallel(
        dataset.num_rows(), regions_.size() * num_classes_,
        FlatTreeRouter::kBatch, pool,
        [&](int64_t begin, int64_t end, std::vector<int64_t>& acc) {
          int64_t rows[FlatTreeRouter::kBatch];
          int n = 0;
          for (int64_t row = begin; row < end; ++row) {
            if (focus_box != nullptr &&
                !focus_box->Contains(schema, dataset.Row(row))) {
              continue;
            }
            rows[n++] = row;
          }
          if (n == 0) return;
          int l1[FlatTreeRouter::kBatch];
          int l2[FlatTreeRouter::kBatch];
          router1.RouteRows(dataset, rows, n, l1);
          router2.RouteRows(dataset, rows, n, l2);
          for (int i = 0; i < n; ++i) tally(l1[i], l2[i], rows[i], acc);
        });
  } else {
    counts = CountRowsMaybeParallel(
        dataset.num_rows(), regions_.size() * num_classes_, pool,
        [&](int64_t row, std::vector<int64_t>& acc) {
          const auto values = dataset.Row(row);
          if (focus_box != nullptr && !focus_box->Contains(schema, values)) {
            return;
          }
          tally(router1.Route(values), router2.Route(values), row, acc);
        });
  }
  std::vector<double> measures(counts.size());
  const double n = static_cast<double>(dataset.num_rows());
  FOCUS_CHECK_GT(n, 0.0);
  for (size_t i = 0; i < counts.size(); ++i) {
    measures[i] = static_cast<double>(counts[i]) / n;
  }
  return measures;
}

namespace {

// Shared aggregation: per-(region, class) differences filtered by class
// and (for the GCR path) by focus-emptiness of the region box. The filter
// is a template parameter (bool(int region)) so the all-regions case
// compiles down to an unconditional loop.
template <typename RegionIncluded>
double AggregateDeviation(const std::vector<double>& measures1, double n1,
                          const std::vector<double>& measures2, double n2,
                          int num_regions, int num_classes,
                          const DtDeviationOptions& options,
                          const RegionIncluded& region_included) {
  std::vector<double> diffs;
  diffs.reserve(measures1.size());
  for (int r = 0; r < num_regions; ++r) {
    if (!region_included(r)) continue;
    for (int c = 0; c < num_classes; ++c) {
      if (options.class_filter >= 0 && c != options.class_filter) continue;
      const size_t i = static_cast<size_t>(r) * num_classes + c;
      diffs.push_back(options.fn.f(measures1[i] * n1, measures2[i] * n2, n1, n2));
    }
  }
  return AggregateValues(options.fn.g, diffs);
}

}  // namespace

double DtDeviation(const DtModel& m1, const data::Dataset& d1,
                   const DtModel& m2, const data::Dataset& d2,
                   const DtDeviationOptions& options) {
  const DtGcr gcr(m1, m2);
  const std::vector<double> measures1 =
      gcr.Measures(m1.tree(), m2.tree(), d1, options.focus, options.pool);
  const std::vector<double> measures2 =
      gcr.Measures(m1.tree(), m2.tree(), d2, options.focus, options.pool);
  const data::Schema& schema = m1.tree().schema();
  const double n1 = static_cast<double>(d1.num_rows());
  const double n2 = static_cast<double>(d2.num_rows());

  // Under focussing, regions whose intersection with R is empty drop out
  // of the focussed structural component (Definition 5.1). This matters
  // for difference functions with nonzero f(0, 0), e.g. chi-squared's c.
  if (options.focus.has_value()) {
    const data::Box& focus = *options.focus;
    return AggregateDeviation(
        measures1, n1, measures2, n2, gcr.num_regions(), gcr.num_classes(),
        options, [&gcr, &schema, &focus](int r) {
          return !gcr.regions()[r].box.Intersect(focus).IsEmpty(schema);
        });
  }
  return AggregateDeviation(measures1, n1, measures2, n2, gcr.num_regions(),
                            gcr.num_classes(), options,
                            [](int) { return true; });
}

double DtDeviationOverTree(const dt::DecisionTree& tree,
                           const data::Dataset& d1, const data::Dataset& d2,
                           const DtDeviationOptions& options) {
  FOCUS_CHECK(!options.focus.has_value())
      << "focus over a single tree: intersect leaf boxes via DtDeviation";
  const std::vector<double> measures1 = DtMeasuresOverTree(tree, d1, options.pool);
  const std::vector<double> measures2 = DtMeasuresOverTree(tree, d2, options.pool);
  return AggregateDeviation(measures1, static_cast<double>(d1.num_rows()),
                            measures2, static_cast<double>(d2.num_rows()),
                            tree.num_leaves(), tree.schema().num_classes(),
                            options, [](int) { return true; });
}

std::vector<double> DtMeasuresOverTree(const dt::DecisionTree& tree,
                                       const data::Dataset& dataset,
                                       common::ThreadPool* pool) {
  FOCUS_CHECK(tree.schema() == dataset.schema());
  const int num_classes = tree.schema().num_classes();
  const FlatTreeRouter router(tree);
  std::vector<int64_t> counts;
  if (router.PrefersBatchedRouting()) {
    counts = CountRowRangesMaybeParallel(
        dataset.num_rows(),
        static_cast<size_t>(tree.num_leaves()) * num_classes,
        FlatTreeRouter::kBatch, pool,
        [&](int64_t begin, int64_t end, std::vector<int64_t>& acc) {
          int64_t rows[FlatTreeRouter::kBatch];
          const int n = static_cast<int>(end - begin);
          for (int i = 0; i < n; ++i) rows[i] = begin + i;
          int leaves[FlatTreeRouter::kBatch];
          router.RouteRows(dataset, rows, n, leaves);
          for (int i = 0; i < n; ++i) {
            ++acc[static_cast<size_t>(leaves[i]) * num_classes +
                  dataset.Label(rows[i])];
          }
        });
  } else {
    counts = CountRowsMaybeParallel(
        dataset.num_rows(),
        static_cast<size_t>(tree.num_leaves()) * num_classes, pool,
        [&](int64_t row, std::vector<int64_t>& acc) {
          const int leaf = router.Route(dataset.Row(row));
          ++acc[static_cast<size_t>(leaf) * num_classes +
                dataset.Label(row)];
        });
  }
  std::vector<double> measures(counts.size());
  const double n = static_cast<double>(dataset.num_rows());
  FOCUS_CHECK_GT(n, 0.0);
  for (size_t i = 0; i < counts.size(); ++i) {
    measures[i] = static_cast<double>(counts[i]) / n;
  }
  return measures;
}

}  // namespace focus::core
