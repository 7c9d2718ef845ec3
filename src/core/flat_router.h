#ifndef FOCUS_CORE_FLAT_ROUTER_H_
#define FOCUS_CORE_FLAT_ROUTER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "data/dataset.h"
#include "data/schema.h"
#include "tree/decision_tree.h"

namespace focus::core {

// Scan-shape policy for the dt measure scans. Lockstep batching exists to
// hide node-load latency, which only appears once the flattened node array
// outgrows the fast cache levels; the paper's ~20-leaf trees live in L1,
// where the row-at-a-time walk keeps its cursor in a register and wins
// (BENCH_vertical.json carries both numbers at both tree sizes). kAuto,
// the product's mode, picks per flattened tree; the law tests pin the
// other two through ScopedBatchRoutingForTesting.
enum class BatchRouting { kAuto, kAlways, kNever };

namespace internal {
inline BatchRouting& MutableBatchRouting() {
  static BatchRouting mode = BatchRouting::kAuto;
  return mode;
}
}  // namespace internal

inline BatchRouting BatchRoutingMode() {
  return internal::MutableBatchRouting();
}

// Pins the routing mode for the enclosing scope. Test-only; set it before
// any concurrent scan starts.
class ScopedBatchRoutingForTesting {
 public:
  explicit ScopedBatchRoutingForTesting(BatchRouting mode)
      : previous_(internal::MutableBatchRouting()) {
    internal::MutableBatchRouting() = mode;
  }
  ~ScopedBatchRoutingForTesting() {
    internal::MutableBatchRouting() = previous_;
  }
  ScopedBatchRoutingForTesting(const ScopedBatchRoutingForTesting&) = delete;
  ScopedBatchRoutingForTesting& operator=(const ScopedBatchRoutingForTesting&) =
      delete;

 private:
  const BatchRouting previous_;
};

// A decision tree flattened for routing: contiguous nodes with the
// numeric/categorical discriminator resolved ONCE at flatten time instead
// of a schema lookup per node visit. Routing a row is then a tight loop
// over one array — and fusing two of these routers in a single row loop
// (the GCR measure scan) keeps both node arrays hot instead of
// alternating between two pointer-chasing traversals and a hash probe.
//
// RouteRows additionally descends up to kBatch rows in LOCKSTEP: each
// sweep advances every still-internal cursor one level, so the dependent
// node loads of 8 independent descents overlap in the pipeline instead of
// serializing one traversal at a time. Routing is a pure function of one
// row, so the batched scan yields exactly the leaf sequence Route yields
// row-at-a-time (pinned by tests/laws/laws_dt_batch_test.cc).
struct FlatTreeRouter {
  // Rows resolved per RouteRows call; also the row-range width the
  // measure scans hand to core::CountRowRangesMaybeParallel.
  static constexpr int kBatch = 8;

  struct Node {
    double threshold = 0.0;
    uint64_t left_mask = 0;
    int32_t left = -1;
    int32_t right = -1;
    int32_t attribute = -1;  // -1 marks a leaf
    int32_t leaf_index = -1;
    bool is_numeric = false;
  };
  std::vector<Node> nodes;

  explicit FlatTreeRouter(const dt::DecisionTree& tree) {
    FOCUS_CHECK_GT(tree.num_nodes(), 0);
    nodes.resize(tree.num_nodes());
    for (int i = 0; i < tree.num_nodes(); ++i) {
      const dt::DecisionTree::Node& node = tree.node(i);
      Node& flat = nodes[i];
      flat.threshold = node.threshold;
      flat.left_mask = node.left_mask;
      flat.left = node.left;
      flat.right = node.right;
      flat.attribute = node.attribute;
      flat.leaf_index = node.leaf_index;
      flat.is_numeric =
          node.attribute >= 0 &&
          tree.schema().attribute(node.attribute).type ==
              data::AttributeType::kNumeric;
    }
  }

  // Node-array footprint below which batching loses: while the tree is
  // cache-resident a node load costs a handful of cycles and the
  // out-of-order window already overlaps the (independent) descents of
  // consecutive rows — the lockstep form then only adds cursor-array
  // traffic (measured 0.56x at 1 KiB and still 0.78x at a 1 MiB node
  // array). Only once the array outgrows the last-level-cache regime do
  // the 8 parallel dependency chains buy real memory-level parallelism
  // (1.81x at 12 MiB). micro_dt_route measures both regimes; the
  // threshold sits between the measured loss and the measured win.
  static constexpr size_t kBatchedRoutingMinBytes = size_t{4} << 20;

  bool PrefersBatchedRouting() const {
    switch (BatchRoutingMode()) {
      case BatchRouting::kAlways:
        return true;
      case BatchRouting::kNever:
        return false;
      case BatchRouting::kAuto:
        break;
    }
    return nodes.size() * sizeof(Node) >= kBatchedRoutingMinBytes;
  }

  int Route(std::span<const double> row) const {
    const Node* node = nodes.data();
    while (node->attribute >= 0) {
      const bool go_left =
          node->is_numeric
              ? row[node->attribute] < node->threshold
              : (node->left_mask &
                 (1ULL << static_cast<int>(row[node->attribute]))) != 0;
      node = nodes.data() + (go_left ? node->left : node->right);
    }
    return node->leaf_index;
  }

  // Leaf ordinals of rows[0..n) of `dataset` into leaves[0..n), n at most
  // kBatch. The row list need not be contiguous or sorted — the focussed
  // GCR scan gathers only the rows inside the focus box. Bit-identical to
  // n successive Route calls.
  void RouteRows(const data::Dataset& dataset, const int64_t* rows, int n,
                 int* leaves) const {
    FOCUS_CHECK_LE(n, kBatch);
    const Node* cursor[kBatch];
    const double* values[kBatch];
    int idx[kBatch];  // slots still at an internal node, compacted per sweep
    int active = 0;
    for (int i = 0; i < n; ++i) {
      cursor[i] = nodes.data();
      values[i] = dataset.Row(rows[i]).data();
      if (nodes[0].attribute >= 0) idx[active++] = i;
    }
    // Each sweep advances every still-internal cursor one level, so the
    // dependent node loads of up to kBatch independent descents overlap in
    // the pipeline. Rows that reach a leaf are compacted out, so the total
    // node visits equal the row-at-a-time scan's.
    while (active > 0) {
      int next = 0;
      for (int a = 0; a < active; ++a) {
        const int i = idx[a];
        const Node* node = cursor[i];
        const double* row = values[i];
        const bool go_left =
            node->is_numeric
                ? row[node->attribute] < node->threshold
                : (node->left_mask &
                   (1ULL << static_cast<int>(row[node->attribute]))) != 0;
        node = nodes.data() + (go_left ? node->left : node->right);
        cursor[i] = node;
        if (node->attribute >= 0) idx[next++] = i;
      }
      active = next;
    }
    for (int i = 0; i < n; ++i) leaves[i] = cursor[i]->leaf_index;
  }
};

}  // namespace focus::core

#endif  // FOCUS_CORE_FLAT_ROUTER_H_
