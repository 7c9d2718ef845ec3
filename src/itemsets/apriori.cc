#include "itemsets/apriori.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/check.h"
#include "itemsets/support_counter.h"

namespace focus::lits {
namespace {

// Apriori-gen: joins pairs of frequent (k-1)-itemsets sharing their first
// k-2 items, then prunes candidates with an infrequent (k-1)-subset.
std::vector<Itemset> GenerateCandidates(const std::vector<Itemset>& frequent) {
  std::vector<Itemset> candidates;
  if (frequent.empty()) return candidates;
  const int k_minus_1 = frequent[0].size();

  // `frequent` is sorted lexicographically, so joinable prefixes are
  // contiguous.
  std::unordered_map<Itemset, bool, ItemsetHash> frequent_lookup;
  frequent_lookup.reserve(frequent.size() * 2);
  for (const Itemset& itemset : frequent) frequent_lookup[itemset] = true;

  for (size_t i = 0; i < frequent.size(); ++i) {
    for (size_t j = i + 1; j < frequent.size(); ++j) {
      const auto& a = frequent[i].items();
      const auto& b = frequent[j].items();
      bool shared_prefix = true;
      for (int p = 0; p < k_minus_1 - 1; ++p) {
        if (a[p] != b[p]) {
          shared_prefix = false;
          break;
        }
      }
      if (!shared_prefix) break;  // prefixes are contiguous in sorted order

      std::vector<int32_t> joined = a;
      joined.push_back(b[k_minus_1 - 1]);
      Itemset candidate(std::move(joined));

      // Prune: all (k-1)-subsets must be frequent.
      bool all_subsets_frequent = true;
      for (int32_t item : candidate.items()) {
        if (!frequent_lookup.count(candidate.Without(item))) {
          all_subsets_frequent = false;
          break;
        }
      }
      if (all_subsets_frequent) candidates.push_back(std::move(candidate));
    }
  }
  return candidates;
}

// Level 2 without candidate itemsets. Both 1-subsets of a pair of
// frequent items are frequent, so Apriori-gen's prune step removes nothing
// at k = 2: every pair of `items` (the frequent items, ascending) is a
// candidate. Counts them in one scan into a triangle of counters indexed
// by item rank. Adds the frequent pairs to `model` in the (i < j) order
// GenerateCandidates emits them, so the model fills in the same order, and
// returns them sorted.
std::vector<Itemset> MineFrequentPairs(data::TxnSourceRef source,
                                       const std::vector<int32_t>& items,
                                       int64_t threshold, LitsModel& model) {
  const int64_t num_frequent = static_cast<int64_t>(items.size());
  if (num_frequent < 2) return {};
  // The pair of ranks a < b lives at cell b(b-1)/2 + a, so the pairs one
  // transaction adds for the same larger member are contiguous.
  const auto cell = [](int64_t a, int64_t b) { return b * (b - 1) / 2 + a; };
  std::vector<int64_t> pair_counts(static_cast<size_t>(cell(0, num_frequent)),
                                   0);
  std::vector<int32_t> rank(source.num_items(), -1);
  for (int64_t r = 0; r < num_frequent; ++r) {
    rank[items[r]] = static_cast<int32_t>(r);
  }
  std::vector<int64_t> ranks;  // one transaction's frequent items
  source.ForEachTransaction(
      [&](int64_t /*tid*/, std::span<const int32_t> txn) {
        ranks.clear();
        int32_t previous_item = -1;
        for (int32_t item : txn) {
          // Transactions are sorted, so ranks ascend; a repeated item is
          // skipped as in SupportCounter::CountRange.
          if (item == previous_item) continue;
          previous_item = item;
          if (rank[item] >= 0) ranks.push_back(rank[item]);
        }
        for (size_t q = 1; q < ranks.size(); ++q) {
          int64_t* row = &pair_counts[cell(0, ranks[q])];
          for (size_t p = 0; p < q; ++p) ++row[ranks[p]];
        }
      });

  const double n = static_cast<double>(model.num_transactions());
  std::vector<Itemset> frequent_pairs;
  for (int64_t a = 0; a < num_frequent; ++a) {
    for (int64_t b = a + 1; b < num_frequent; ++b) {
      const int64_t count = pair_counts[cell(a, b)];
      if (count < threshold) continue;
      Itemset itemset({items[a], items[b]});
      model.Add(itemset, static_cast<double>(count) / n);
      frequent_pairs.push_back(std::move(itemset));
    }
  }
  return frequent_pairs;
}

}  // namespace

LitsModel::LitsModel(double min_support, int64_t num_transactions,
                     int32_t num_items)
    : min_support_(min_support),
      num_transactions_(num_transactions),
      num_items_(num_items) {}

void LitsModel::Add(Itemset itemset, double support) {
  FOCUS_CHECK_GE(support, 0.0);
  FOCUS_CHECK_LE(support, 1.0);
  supports_[std::move(itemset)] = support;
}

double LitsModel::SupportOr(const Itemset& itemset, double fallback) const {
  const auto it = supports_.find(itemset);
  return it == supports_.end() ? fallback : it->second;
}

bool LitsModel::Contains(const Itemset& itemset) const {
  return supports_.count(itemset) > 0;
}

std::vector<Itemset> LitsModel::StructuralComponent() const {
  std::vector<Itemset> itemsets;
  itemsets.reserve(supports_.size());
  for (const auto& [itemset, support] : supports_) itemsets.push_back(itemset);
  std::sort(itemsets.begin(), itemsets.end());
  return itemsets;
}

LitsModel Apriori(data::TxnSourceRef source, const AprioriOptions& options,
                  const data::VerticalIndex* index) {
  FOCUS_CHECK_GT(options.min_support, 0.0);
  FOCUS_CHECK_LE(options.min_support, 1.0);
  const int32_t num_items = source.num_items();
  const int64_t num_transactions = source.num_transactions();
  FOCUS_CHECK_GT(num_transactions, 0);
  if (index != nullptr) {
    FOCUS_CHECK_EQ(index->num_items(), num_items);
    FOCUS_CHECK_EQ(index->num_transactions(), num_transactions);
  }

  LitsModel model(options.min_support, num_transactions, num_items);
  const double n = static_cast<double>(num_transactions);
  // Count threshold: the support cutoff, floored by min_absolute_count.
  const int64_t threshold = std::max<int64_t>(
      options.min_absolute_count,
      static_cast<int64_t>(std::ceil(options.min_support * n - 1e-9)));

  // L1: per-item counts — cached popcounts when the index is prebuilt,
  // otherwise one scan.
  std::vector<int64_t> item_counts(num_items, 0);
  if (index != nullptr) {
    for (int32_t item = 0; item < num_items; ++item) {
      item_counts[item] = index->ItemCount(item);
    }
  } else {
    source.ForEachTransaction(
        [&](int64_t /*tid*/, std::span<const int32_t> items) {
          for (int32_t item : items) ++item_counts[item];
        });
  }
  std::vector<int32_t> frequent_items;  // ascending
  for (int32_t item = 0; item < num_items; ++item) {
    if (item_counts[item] >= threshold) {
      model.Add(Itemset({item}),
                static_cast<double>(item_counts[item]) / n);
      frequent_items.push_back(item);
    }
  }
  const auto within_size = [&options](int k) {
    return options.max_itemset_size == 0 || k <= options.max_itemset_size;
  };
  if (!within_size(2)) return model;
  std::vector<Itemset> frequent =
      MineFrequentPairs(source, frequent_items, threshold, model);

  // Levels 3 and up: candidate generation with subset pruning.
  for (int k = 3; !frequent.empty() && within_size(k); ++k) {
    const std::vector<Itemset> candidates = GenerateCandidates(frequent);
    if (candidates.empty()) break;
    const std::vector<int64_t> counts =
        SupportCounter(candidates, num_items).CountAbsolute(source);

    std::vector<Itemset> next_frequent;
    for (size_t i = 0; i < candidates.size(); ++i) {
      const double support = static_cast<double>(counts[i]) / n;
      if (counts[i] >= threshold) {
        model.Add(candidates[i], support);
        next_frequent.push_back(candidates[i]);
      }
    }
    std::sort(next_frequent.begin(), next_frequent.end());
    frequent = std::move(next_frequent);
  }
  return model;
}

LitsModel BruteForceFrequentItemsets(const data::TransactionDb& db,
                                     double min_support, int max_size) {
  FOCUS_CHECK_LE(db.num_items(), 24) << "brute force is for tiny universes";
  LitsModel model(min_support, db.num_transactions(), db.num_items());
  const double n = static_cast<double>(db.num_transactions());

  const uint32_t universe = 1u << db.num_items();
  for (uint32_t mask = 1; mask < universe; ++mask) {
    if (max_size > 0 && __builtin_popcount(mask) > max_size) continue;
    std::vector<int32_t> items;
    for (int32_t i = 0; i < db.num_items(); ++i) {
      if (mask & (1u << i)) items.push_back(i);
    }
    Itemset itemset(std::move(items));
    int64_t count = 0;
    for (int64_t t = 0; t < db.num_transactions(); ++t) {
      if (itemset.IsSubsetOfSorted(db.Transaction(t))) ++count;
    }
    const double support = static_cast<double>(count) / n;
    if (support >= min_support) model.Add(std::move(itemset), support);
  }
  return model;
}

}  // namespace focus::lits
