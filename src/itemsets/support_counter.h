#ifndef FOCUS_ITEMSETS_SUPPORT_COUNTER_H_
#define FOCUS_ITEMSETS_SUPPORT_COUNTER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "data/transaction_db.h"
#include "data/txn_source.h"
#include "data/vertical_index.h"
#include "itemsets/itemset.h"

namespace focus::lits {

// Counts the supports of an arbitrary collection of itemsets in ONE scan
// of the database — the primitive needed both by Apriori's counting passes
// and by the extension of a lits-model to a GCR (§3.3.1 of the paper:
// "both the datasets need to be scanned once").
//
// Two counting strategies, guaranteed bit-identical (integer counts):
//
//   * Horizontal: candidates are bucketed by their smallest item; a scan
//     marks the items of each transaction in a presence bitmap and probes
//     only the buckets of items that occur in the transaction.
//   * Vertical: a prebuilt data::VerticalIndex supplies per-item TID
//     bitmaps; each itemset's count is the popcount of the AND of its
//     members' bitmaps. The index is built in one scan and amortized
//     across every model extension over the same database.
class SupportCounter {
 public:
  SupportCounter(std::span<const Itemset> itemsets, int32_t num_items);

  // Horizontal counting over either transaction backend, aligned with the
  // constructor's itemsets: each decoded block IS a TransactionDb, so the
  // same CountRange kernel runs block by block and per-block counts sum —
  // bit-identical to the in-memory scan for every block size.
  std::vector<int64_t> CountAbsolute(data::TxnSourceRef source) const;

  // Parallel CountAbsolute into per-shard count vectors (each worker keeps
  // its own presence bitmap), summed in shard order. An in-memory source
  // is sharded by transaction ranges, a block-backed one by BLOCK-ALIGNED
  // ranges. Shard boundaries depend only on (|D| or num_blocks, pool size)
  // and counts are integers, so the result is bit-identical to
  // CountAbsolute(source).
  std::vector<int64_t> CountAbsoluteParallel(data::TxnSourceRef source,
                                             common::ThreadPool& pool) const;

  // Vertical counting path over a prebuilt index of the same database,
  // one CountIntersection per itemset: bit-identical to
  // CountAbsolute(source) for an index built from it.
  std::vector<int64_t> CountAbsolute(const data::VerticalIndex& index) const;

  // Relative supports (counts / |D|).
  std::vector<double> CountRelative(data::TxnSourceRef source) const;
  std::vector<double> CountRelativeParallel(data::TxnSourceRef source,
                                            common::ThreadPool& pool) const;
  std::vector<double> CountRelative(const data::VerticalIndex& index) const;

  // The bucketed probe of one sorted transaction: calls hit(i) for every
  // non-empty itemset i of the constructor's list that `txn` contains.
  // `present` is scratch of num_items zeros, and is left that way. Every
  // horizontal count in this class, and every level from 3 up of
  // lits::MineLevels, goes through it.
  template <typename Hit>
  void ForEachContained(std::span<const int32_t> txn,
                        std::vector<uint8_t>& present, Hit&& hit) const {
    for (int32_t item : txn) present[item] = 1;
    int32_t previous_item = -1;
    for (int32_t item : txn) {
      // TransactionDb guarantees sorted-unique transactions, but a
      // repeated item here would probe its bucket twice and double-count
      // every candidate anchored at it — guard rather than trust callers
      // that bypass AddTransaction's dedup (none exist today).
      if (item == previous_item) continue;
      previous_item = item;
      for (int32_t candidate_index : buckets_[item]) {
        bool all_present = true;
        for (int32_t member : itemsets_[candidate_index]->items()) {
          if (!present[member]) {
            all_present = false;
            break;
          }
        }
        if (all_present) hit(candidate_index);
      }
    }
    for (int32_t item : txn) present[item] = 0;
  }

 private:
  // Accumulates counts over transactions [begin, end) into `counts`.
  void CountRange(const data::TransactionDb& db, int64_t begin, int64_t end,
                  std::vector<int64_t>& counts) const;

  int32_t num_items_;
  std::vector<const Itemset*> itemsets_;
  // buckets_[item] lists indices of itemsets whose smallest item == item.
  std::vector<std::vector<int32_t>> buckets_;
  // Indices of empty itemsets (support 1 by definition).
  std::vector<int32_t> empty_itemsets_;
};

// One-call convenience wrapper.
std::vector<double> CountSupports(data::TxnSourceRef source,
                                  std::span<const Itemset> itemsets);

}  // namespace focus::lits

#endif  // FOCUS_ITEMSETS_SUPPORT_COUNTER_H_
