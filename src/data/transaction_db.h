#ifndef FOCUS_DATA_TRANSACTION_DB_H_
#define FOCUS_DATA_TRANSACTION_DB_H_

#include <cstdint>
#include <span>
#include <vector>

namespace focus::data {

// A market-basket database: a bag of transactions, each a sorted set of
// distinct item ids in [0, num_items). Backing storage is a single flat
// array with offsets so scans are cache-friendly.
//
// INVARIANT (sorted-unique): every stored transaction is strictly
// ascending — no duplicate items. AddTransaction is the only mutation
// path that adds items and it sorts, dedupes, and range-checks its
// input, so the invariant holds for every database reachable through
// this API (loaders and generators all build via AddTransaction).
// Counting kernels rely on it: SupportCounter's horizontal probe loop
// would double-count a candidate whose anchor item repeated, and
// VerticalIndex's bitmaps would silently collapse duplicates, breaking
// the bit-identical horizontal == vertical contract.
class TransactionDb {
 public:
  explicit TransactionDb(int32_t num_items = 0) : num_items_(num_items) {
    offsets_.push_back(0);
  }

  int32_t num_items() const { return num_items_; }
  int64_t num_transactions() const {
    return static_cast<int64_t>(offsets_.size()) - 1;
  }

  // Items of transaction `t`, sorted ascending, no duplicates.
  std::span<const int32_t> Transaction(int64_t t) const {
    return {items_.data() + offsets_[t],
            static_cast<size_t>(offsets_[t + 1] - offsets_[t])};
  }

  // Appends a transaction. `items` need not be sorted; duplicates are
  // removed. Item ids must be in [0, num_items). The items are copied to
  // the end of the flat array and sorted there, so a row costs no
  // allocation of its own; `items` may alias this database's storage.
  void AddTransaction(std::span<const int32_t> items);

  // Appends all transactions of `other` (same item universe).
  void Append(const TransactionDb& other);

  void Reserve(int64_t transactions, int64_t total_items);

 private:
  int32_t num_items_;
  std::vector<int32_t> items_;
  std::vector<int64_t> offsets_;
};

}  // namespace focus::data

#endif  // FOCUS_DATA_TRANSACTION_DB_H_
