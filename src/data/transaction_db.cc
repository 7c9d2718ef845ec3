#include "data/transaction_db.h"

#include <algorithm>
#include <functional>
#include <vector>

#include "common/check.h"

namespace focus::data {

void TransactionDb::AddTransaction(std::span<const int32_t> items) {
  // Growing items_ would leave a span into it dangling: copy that one case.
  const std::less<const int32_t*> before;
  if (!items.empty() && !before(items.data(), items_.data()) &&
      before(items.data(), items_.data() + items_.size())) {
    const std::vector<int32_t> copy(items.begin(), items.end());
    AddTransaction(copy);
    return;
  }
  // Sort and dedup in place at the tail of items_: no per-row allocation.
  // A row copied out of another database is sorted and unique already.
  const auto start = items_.insert(items_.end(), items.begin(), items.end());
  if (std::adjacent_find(start, items_.end(), std::greater_equal<>()) !=
      items_.end()) {
    std::sort(start, items_.end());
    items_.erase(std::unique(start, items_.end()), items_.end());
  }
  for (auto it = start; it != items_.end(); ++it) {
    FOCUS_CHECK_GE(*it, 0);
    FOCUS_CHECK_LT(*it, num_items_);
  }
  offsets_.push_back(static_cast<int64_t>(items_.size()));
}

void TransactionDb::Append(const TransactionDb& other) {
  FOCUS_CHECK_EQ(num_items_, other.num_items_);
  for (int64_t t = 0; t < other.num_transactions(); ++t) {
    const auto txn = other.Transaction(t);
    items_.insert(items_.end(), txn.begin(), txn.end());
    offsets_.push_back(static_cast<int64_t>(items_.size()));
  }
}

void TransactionDb::Reserve(int64_t transactions, int64_t total_items) {
  offsets_.reserve(transactions + 1);
  items_.reserve(total_items);
}

}  // namespace focus::data
