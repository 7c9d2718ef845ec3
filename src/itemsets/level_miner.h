#ifndef FOCUS_ITEMSETS_LEVEL_MINER_H_
#define FOCUS_ITEMSETS_LEVEL_MINER_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "itemsets/itemset.h"
#include "itemsets/support_counter.h"

namespace focus::lits {

// Apriori's level loop, over kColumns bags of the same rows at once.
//
// A bag gives each row a multiplicity, its weight. `rows(visit)` makes one
// pass: it calls visit(txn, weights) for each row, where `txn` is the row's
// sorted-unique items and weights[c] its multiplicity in column c's bag.
// lits::Apriori mines one bag in which every row counts once (UnitWeight).
// core::LitsNullDeviations mines a bootstrap replicate's two resamples of
// the pool d1 ++ d2 together, each row weighted by how often each resample
// drew it, so no resample is copied.
//
// An itemset is kept when at least one column's count reaches that
// column's threshold, and each level's candidates are generated from the
// kept itemsets of the level below. An itemset frequent in column c has
// every subset frequent in column c, so it is among the candidates, and
// its counts in every column are taken in the same pass: with two columns
// the kept itemsets are the GCR of the two models Apriori would mine from
// the two bags, each with the integer counts that mining or extending
// either model would give.
//
// Cells hold counts as `Cell`, kColumns per itemset; every count must fit.

// The weights of a bag in which every row counts once.
struct UnitWeight {
  constexpr int operator[](size_t /*column*/) const { return 1; }
};

namespace internal {

// Apriori-gen: joins pairs of the frequent (k-1)-itemsets, sorted
// lexicographically, that share their first k-2 items, then prunes the
// candidates with an infrequent (k-1)-subset. The candidates come out in
// lexicographic order.
std::vector<Itemset> GenerateCandidates(const std::vector<Itemset>& frequent);

template <size_t kColumns, typename Cell, typename Weights>
inline void AddWeights(Cell* cells, const Weights& weights) {
  for (size_t c = 0; c < kColumns; ++c) cells[c] += weights[c];
}

// Level 2 without candidate itemsets. Both 1-subsets of a pair of kept
// items are kept, so Apriori-gen's prune step removes nothing at k = 2:
// every pair of `items` (the kept items, ascending) is a candidate. Counts
// them in one pass into a triangle of cells indexed by item rank, emits the
// kept pairs in the (i < j) order GenerateCandidates would, and returns
// them sorted. Kept out of line: inlined into MineLevels, its loops spill
// and Apriori's mine at the serving shape took 12-20% longer.
template <typename Cell, size_t kColumns, typename Rows, typename Keep,
          typename Emit>
[[gnu::noinline]] std::vector<Itemset> MinePairs(
    int32_t num_items, const std::vector<int32_t>& items, const Rows& rows,
    const Keep& keep, Emit& emit) {
  const int64_t num_kept = static_cast<int64_t>(items.size());
  if (num_kept < 2) return {};
  // The pair of ranks a < b lives at cell b(b-1)/2 + a, so the pairs one
  // row adds for the same larger member are contiguous.
  const auto cell = [](int64_t a, int64_t b) {
    return static_cast<size_t>(b * (b - 1) / 2 + a) * kColumns;
  };
  std::vector<Cell> cells(cell(0, num_kept), 0);
  std::vector<int32_t> rank(num_items, -1);
  for (int64_t r = 0; r < num_kept; ++r) {
    rank[items[r]] = static_cast<int32_t>(r);
  }
  std::vector<int64_t> ranks;  // one row's kept items
  rows([&](std::span<const int32_t> txn, const auto& weights) {
    ranks.clear();
    int32_t previous_item = -1;
    for (int32_t item : txn) {
      // Rows are sorted, so ranks ascend; a repeated item is skipped as
      // in SupportCounter::ForEachContained.
      if (item == previous_item) continue;
      previous_item = item;
      if (rank[item] >= 0) ranks.push_back(rank[item]);
    }
    for (size_t q = 1; q < ranks.size(); ++q) {
      Cell* row = &cells[cell(0, ranks[q])];
      for (size_t p = 0; p < q; ++p) {
        AddWeights<kColumns>(row + ranks[p] * kColumns, weights);
      }
    }
  });

  // Scan the triangle in memory order, then emit the kept pairs in (a, b)
  // order.
  std::vector<std::pair<int64_t, int64_t>> kept;
  for (int64_t b = 1; b < num_kept; ++b) {
    const Cell* row = &cells[cell(0, b)];
    for (int64_t a = 0; a < b; ++a) {
      if (keep(row + a * kColumns)) kept.emplace_back(a, b);
    }
  }
  std::sort(kept.begin(), kept.end());
  std::vector<Itemset> kept_pairs;
  kept_pairs.reserve(kept.size());
  for (const auto& [a, b] : kept) {
    Itemset itemset({items[a], items[b]});
    emit(itemset, &cells[cell(a, b)]);
    kept_pairs.push_back(std::move(itemset));
  }
  return kept_pairs;
}

}  // namespace internal

// Level 1's pass: item i's count in column c, at [i * kColumns + c].
template <typename Cell, size_t kColumns, typename Rows>
std::vector<Cell> CountItems(int32_t num_items, const Rows& rows) {
  std::vector<Cell> counts(static_cast<size_t>(num_items) * kColumns, 0);
  rows([&counts](std::span<const int32_t> txn, const auto& weights) {
    for (int32_t item : txn) {
      internal::AddWeights<kColumns>(&counts[item * kColumns], weights);
    }
  });
  return counts;
}

// The level loop. `item_counts` is level 1 (CountItems' layout), and
// thresholds[c] the count an itemset needs in column c. Calls
// emit(region, counts) for every kept itemset, in size-then-lexicographic
// order (Itemset::operator<), with `counts` its kColumns cells: `region`
// is the item (int32_t) at level 1 and a const Itemset& from level 2 on.
// Stops after level max_itemset_size (0: no bound).
template <typename Cell, size_t kColumns, typename Rows, typename Emit>
void MineLevels(int32_t num_items,
                const std::array<int64_t, kColumns>& thresholds,
                int max_itemset_size, const std::vector<Cell>& item_counts,
                const Rows& rows, Emit&& emit) {
  const auto keep = [&thresholds](const Cell* counts) {
    for (size_t c = 0; c < kColumns; ++c) {
      if (static_cast<int64_t>(counts[c]) >= thresholds[c]) return true;
    }
    return false;
  };
  std::vector<int32_t> kept_items;  // ascending
  for (int32_t item = 0; item < num_items; ++item) {
    const Cell* counts = &item_counts[item * kColumns];
    if (keep(counts)) {
      emit(item, counts);
      kept_items.push_back(item);
    }
  }
  const auto within_size = [max_itemset_size](int k) {
    return max_itemset_size == 0 || k <= max_itemset_size;
  };
  if (!within_size(2)) return;
  std::vector<Itemset> frequent =
      internal::MinePairs<Cell, kColumns>(num_items, kept_items, rows, keep,
                                          emit);

  // Levels 3 and up: candidate generation with subset pruning, counted by
  // the bucketed probe.
  std::vector<uint8_t> present(num_items, 0);
  for (int k = 3; !frequent.empty() && within_size(k); ++k) {
    const std::vector<Itemset> candidates =
        internal::GenerateCandidates(frequent);
    if (candidates.empty()) break;
    const SupportCounter counter(candidates, num_items);
    std::vector<Cell> cells(candidates.size() * kColumns, 0);
    rows([&](std::span<const int32_t> txn, const auto& weights) {
      counter.ForEachContained(txn, present, [&](int32_t i) {
        internal::AddWeights<kColumns>(&cells[i * kColumns], weights);
      });
    });

    std::vector<Itemset> next_frequent;
    for (size_t i = 0; i < candidates.size(); ++i) {
      const Cell* counts = &cells[i * kColumns];
      if (keep(counts)) {
        emit(candidates[i], counts);
        next_frequent.push_back(candidates[i]);
      }
    }
    std::sort(next_frequent.begin(), next_frequent.end());
    frequent = std::move(next_frequent);
  }
}

}  // namespace focus::lits

#endif  // FOCUS_ITEMSETS_LEVEL_MINER_H_
