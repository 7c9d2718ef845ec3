#ifndef FOCUS_DATA_VERTICAL_INDEX_H_
#define FOCUS_DATA_VERTICAL_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/txn_source.h"

namespace focus::data {

// Vertical (per-item) representation of a TransactionDb: for every item a
// 64-bit TID bitmap whose bit t is set iff transaction t contains the
// item. Built in ONE pass over the database — the paper's §3.3.1 "scan
// each dataset once" budget — and then probed arbitrarily often: the
// support of an itemset is the popcount of the AND of its members'
// bitmaps, a word-parallel loop that touches 64 transactions per
// instruction instead of walking transactions horizontally. Setting a
// transaction's bits and bumping its items' counts happen in the SAME
// loop, so the build really is one touch per occurrence.
//
// The classic vertical-mining trade-off: the index costs
// num_items x ceil(n/64) x 8 bytes (e.g. 1000 items x 1M transactions
// ~ 125 MiB) and one build scan, and in exchange every later extension
// of a model over the SAME dataset — GCR extension against a rotating set
// of reference models, sliding-window re-comparisons in the serving
// layer — probes a few hundred itemsets without touching the raw
// transactions. Mining does not use it past level 1: Apriori's level
// passes count thousands of candidates, and one scan beats that many
// intersections (lits::Apriori). Build once, probe many.
class VerticalIndex {
 public:
  // One scan of either backend. Transactions must satisfy TransactionDb's
  // sorted-unique invariant (they do, by construction). Block-backed
  // sources stream through the same build loop block-at-a-time (with
  // read-ahead), touching each occurrence exactly once; the resulting index
  // is identical — not just count-equal, operator==-equal — to an
  // in-memory build of the same logical database.
  explicit VerticalIndex(TxnSourceRef source);

  bool operator==(const VerticalIndex& other) const = default;

  int32_t num_items() const { return num_items_; }
  int64_t num_transactions() const { return num_transactions_; }
  // Words per item bitmap: ceil(num_transactions / 64).
  int64_t num_words() const { return words_; }

  // The TID bitmap of `item`. Bits at positions >= num_transactions()
  // (the tail of the last word) are always zero, so AND+popcount needs
  // no tail masking.
  std::span<const uint64_t> ItemBits(int32_t item) const {
    return {bits_.data() + static_cast<size_t>(item) * words_,
            static_cast<size_t>(words_)};
  }

  // Absolute occurrence count of a single item (cached popcount).
  int64_t ItemCount(int32_t item) const { return item_counts_[item]; }

  // Absolute occurrence count of the itemset `items` (ascending distinct
  // item ids in [0, num_items)): popcount of the AND of the members'
  // bitmaps, one portable word loop. The empty itemset holds in every
  // transaction.
  int64_t CountIntersection(std::span<const int32_t> items) const;

  // Approximate heap footprint, for capacity planning in caches.
  int64_t MemoryBytes() const {
    return static_cast<int64_t>(bits_.capacity()) * 8 +
           static_cast<int64_t>(item_counts_.capacity()) * 8;
  }

 private:
  int32_t num_items_ = 0;
  int64_t num_transactions_ = 0;
  int64_t words_ = 0;
  std::vector<uint64_t> bits_;  // row-major [item][word]
  std::vector<int64_t> item_counts_;
};

}  // namespace focus::data

#endif  // FOCUS_DATA_VERTICAL_INDEX_H_
