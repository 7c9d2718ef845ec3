#include "itemsets/apriori.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/check.h"
#include "itemsets/level_miner.h"

namespace focus::lits {
namespace {

// A level-1 region as the model stores it.
Itemset AsItemset(int32_t item) { return Itemset({item}); }
const Itemset& AsItemset(const Itemset& itemset) { return itemset; }

}  // namespace

std::vector<Itemset> internal::GenerateCandidates(
    const std::vector<Itemset>& frequent) {
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

int64_t AprioriCountThreshold(const AprioriOptions& options,
                              int64_t num_transactions) {
  FOCUS_CHECK_GT(options.min_support, 0.0);
  FOCUS_CHECK_LE(options.min_support, 1.0);
  FOCUS_CHECK_GT(num_transactions, 0);
  return std::max<int64_t>(
      options.min_absolute_count,
      static_cast<int64_t>(std::ceil(
          options.min_support * static_cast<double>(num_transactions) -
          1e-9)));
}

LitsModel Apriori(data::TxnSourceRef source, const AprioriOptions& options,
                  const data::VerticalIndex* index) {
  const int32_t num_items = source.num_items();
  const int64_t num_transactions = source.num_transactions();
  const int64_t threshold = AprioriCountThreshold(options, num_transactions);
  if (index != nullptr) {
    FOCUS_CHECK_EQ(index->num_items(), num_items);
    FOCUS_CHECK_EQ(index->num_transactions(), num_transactions);
  }

  // One bag: every transaction of `source` once, one pass per level.
  const auto rows = [source](auto&& visit) {
    source.ForEachTransaction(
        [&visit](int64_t /*tid*/, std::span<const int32_t> txn) {
          visit(txn, UnitWeight{});
        });
  };
  // L1: per-item counts — cached popcounts when the index is prebuilt,
  // otherwise one pass.
  std::vector<int64_t> item_counts;
  if (index != nullptr) {
    item_counts.resize(num_items);
    for (int32_t item = 0; item < num_items; ++item) {
      item_counts[item] = index->ItemCount(item);
    }
  } else {
    item_counts = CountItems<int64_t, 1>(num_items, rows);
  }

  LitsModel model(options.min_support, num_transactions, num_items);
  const double n = static_cast<double>(num_transactions);
  MineLevels<int64_t, 1>(
      num_items, {threshold}, options.max_itemset_size, item_counts, rows,
      [&model, n](const auto& region, const int64_t* count) {
        model.Add(AsItemset(region), static_cast<double>(*count) / n);
      });
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
