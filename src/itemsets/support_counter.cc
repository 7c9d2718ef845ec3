#include "itemsets/support_counter.h"

#include "common/check.h"

namespace focus::lits {

SupportCounter::SupportCounter(std::span<const Itemset> itemsets,
                               int32_t num_items)
    : num_items_(num_items), buckets_(num_items) {
  itemsets_.reserve(itemsets.size());
  for (size_t i = 0; i < itemsets.size(); ++i) {
    const Itemset& itemset = itemsets[i];
    FOCUS_CHECK(itemset.WithinUniverse(num_items))
        << "itemset " << itemset.ToString() << " outside universe of "
        << num_items << " items";
    itemsets_.push_back(&itemset);
    if (itemset.empty()) {
      empty_itemsets_.push_back(static_cast<int32_t>(i));
    } else {
      buckets_[itemset.item(0)].push_back(static_cast<int32_t>(i));
    }
  }
}

void SupportCounter::CountRange(const data::TransactionDb& db, int64_t begin,
                                int64_t end,
                                std::vector<int64_t>& counts) const {
  // The empty itemset holds in every transaction of the range.
  for (int32_t i : empty_itemsets_) counts[i] += end - begin;

  std::vector<uint8_t> present(num_items_, 0);
  for (int64_t t = begin; t < end; ++t) {
    ForEachContained(db.Transaction(t), present,
                     [&counts](int32_t i) { ++counts[i]; });
  }
}

std::vector<int64_t> SupportCounter::CountAbsolute(
    const data::VerticalIndex& index) const {
  FOCUS_CHECK_EQ(index.num_items(), num_items_);
  std::vector<int64_t> counts(itemsets_.size());
  for (size_t i = 0; i < itemsets_.size(); ++i) {
    counts[i] = index.CountIntersection(itemsets_[i]->items());
  }
  return counts;
}

std::vector<int64_t> SupportCounter::CountAbsolute(
    data::TxnSourceRef source) const {
  FOCUS_CHECK_EQ(source.num_items(), num_items_);
  std::vector<int64_t> counts(itemsets_.size(), 0);
  source.ForEachBlock(
      [&](int64_t /*first_txn*/, const data::TransactionDb& block) {
        CountRange(block, 0, block.num_transactions(), counts);
      });
  return counts;
}

std::vector<int64_t> SupportCounter::CountAbsoluteParallel(
    data::TxnSourceRef source, common::ThreadPool& pool) const {
  FOCUS_CHECK_EQ(source.num_items(), num_items_);
  const int num_shards = pool.num_threads();
  std::vector<std::vector<int64_t>> shard_counts(
      num_shards, std::vector<int64_t>(itemsets_.size(), 0));
  if (const data::TransactionDb* db = source.memory()) {
    // One block == the whole database: sharding its transactions
    // parallelizes better than block shards ever could here.
    pool.ParallelFor(0, db->num_transactions(), num_shards,
                     [&](int shard, int64_t begin, int64_t end) {
                       CountRange(*db, begin, end, shard_counts[shard]);
                     });
  } else {
    pool.ParallelFor(0, source.num_blocks(), num_shards,
                     [&](int shard, int64_t begin, int64_t end) {
                       for (int64_t b = begin; b < end; ++b) {
                         const data::TxnSourceRef::BlockView view =
                             source.GetBlock(b);
                         CountRange(*view.db, 0, view.db->num_transactions(),
                                    shard_counts[shard]);
                       }
                     });
  }
  std::vector<int64_t> counts(itemsets_.size(), 0);
  for (const std::vector<int64_t>& shard : shard_counts) {
    for (size_t i = 0; i < counts.size(); ++i) counts[i] += shard[i];
  }
  return counts;
}

namespace {

std::vector<double> ToRelative(const std::vector<int64_t>& absolute,
                               int64_t num_transactions) {
  std::vector<double> relative(absolute.size());
  const double n = static_cast<double>(num_transactions);
  FOCUS_CHECK_GT(n, 0.0);
  for (size_t i = 0; i < absolute.size(); ++i) {
    relative[i] = static_cast<double>(absolute[i]) / n;
  }
  return relative;
}

}  // namespace

std::vector<double> SupportCounter::CountRelative(
    const data::VerticalIndex& index) const {
  return ToRelative(CountAbsolute(index), index.num_transactions());
}

std::vector<double> SupportCounter::CountRelative(
    data::TxnSourceRef source) const {
  return ToRelative(CountAbsolute(source), source.num_transactions());
}

std::vector<double> SupportCounter::CountRelativeParallel(
    data::TxnSourceRef source, common::ThreadPool& pool) const {
  return ToRelative(CountAbsoluteParallel(source, pool),
                    source.num_transactions());
}

std::vector<double> CountSupports(data::TxnSourceRef source,
                                  std::span<const Itemset> itemsets) {
  return SupportCounter(itemsets, source.num_items()).CountRelative(source);
}

}  // namespace focus::lits
