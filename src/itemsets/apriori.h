#ifndef FOCUS_ITEMSETS_APRIORI_H_
#define FOCUS_ITEMSETS_APRIORI_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "data/transaction_db.h"
#include "data/txn_source.h"
#include "data/vertical_index.h"
#include "itemsets/itemset.h"

namespace focus::lits {

// A lits-model (§2.2, §4.1): the set of frequent itemsets L^ms_D together
// with their supports. Structural component = the itemsets; measure
// component = the supports. This is the 2-component decomposition the
// FOCUS framework operates on.
class LitsModel {
 public:
  LitsModel() = default;
  LitsModel(double min_support, int64_t num_transactions, int32_t num_items);

  double min_support() const { return min_support_; }
  int64_t num_transactions() const { return num_transactions_; }
  int32_t num_items() const { return num_items_; }

  int64_t size() const { return static_cast<int64_t>(supports_.size()); }

  // Adds a frequent itemset with its relative support.
  void Add(Itemset itemset, double support);

  // Support of `itemset`, or `fallback` if it is not in the model.
  double SupportOr(const Itemset& itemset, double fallback) const;

  bool Contains(const Itemset& itemset) const;

  // The structural component Γ(M) in a deterministic (sorted) order.
  std::vector<Itemset> StructuralComponent() const;

  const std::unordered_map<Itemset, double, ItemsetHash>& supports() const {
    return supports_;
  }

 private:
  double min_support_ = 0.0;
  int64_t num_transactions_ = 0;
  int32_t num_items_ = 0;
  std::unordered_map<Itemset, double, ItemsetHash> supports_;
};

struct AprioriOptions {
  double min_support = 0.01;
  // Upper bound on frequent-itemset size; 0 means unbounded.
  int max_itemset_size = 0;
  // Floor on the absolute occurrence count an itemset needs, regardless
  // of min_support. Protects degenerate small databases (e.g. a 1%-of-D
  // sample in the Section 6 study, where min_support * |S| < 1 would make
  // every subset of every transaction "frequent" — a combinatorial
  // explosion the paper's 1M-transaction datasets never hit).
  int64_t min_absolute_count = 2;
};

// The count an itemset needs to be frequent among `num_transactions`
// transactions: the min_support cutoff, floored by min_absolute_count.
// Checks min_support in (0, 1] and num_transactions > 0.
int64_t AprioriCountThreshold(const AprioriOptions& options,
                              int64_t num_transactions);

// Classic Apriori (Agrawal & Srikant [5]): level-wise candidate
// generation with subset pruning, one counting scan per level. Level 2
// needs no candidates: every pair of frequent items survives the prune
// step, so the pairs are counted directly in one scan into a triangle of
// counters, and only the frequent ones become itemsets. Levels 3 and up
// count their candidates with SupportCounter's bucketed scan. The level
// loop is lits::MineLevels (itemsets/level_miner.h) over one column.
//
// `source` is either transaction backend: block-backed sources stream each
// counting pass block by block in bounded memory (with the usual
// read-ahead), and the mined model is bit-identical to the in-memory run —
// every pass computes the same integer counts.
//
// When `index` is non-null it must be a vertical index built from
// `source`; level 1 then reads its cached item counts instead of scanning.
// Every later level scans `source`: counting pair by pair through the
// index costs F(F-1)/2 bitmap intersections for F frequent items, which
// loses to one scan at every shape measured (docs/PERFORMANCE.md). The
// model is bit-identical either way.
LitsModel Apriori(data::TxnSourceRef source, const AprioriOptions& options,
                  const data::VerticalIndex* index = nullptr);

// Reference miner for tests: enumerates and counts every itemset up to
// `max_size` by brute force. Exponential; only for tiny databases.
LitsModel BruteForceFrequentItemsets(const data::TransactionDb& db,
                                     double min_support, int max_size);

}  // namespace focus::lits

#endif  // FOCUS_ITEMSETS_APRIORI_H_
