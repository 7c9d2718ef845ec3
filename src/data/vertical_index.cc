#include "data/vertical_index.h"

#include <vector>

namespace focus::data {
namespace {

// Branch-free SWAR popcount. The build targets baseline x86-64, where
// std::popcount has no instruction and becomes a libgcc call per word;
// this stays inline and needs no CPU dispatch.
inline int64_t Popcount(uint64_t word) {
  word -= (word >> 1) & 0x5555555555555555ULL;
  word = (word & 0x3333333333333333ULL) + ((word >> 2) & 0x3333333333333333ULL);
  word = (word + (word >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<int64_t>((word * 0x0101010101010101ULL) >> 56);
}

}  // namespace

VerticalIndex::VerticalIndex(TxnSourceRef source)
    : num_items_(source.num_items()),
      num_transactions_(source.num_transactions()),
      words_((source.num_transactions() + 63) / 64),
      bits_(static_cast<size_t>(source.num_items()) *
                ((source.num_transactions() + 63) / 64),
            0),
      item_counts_(source.num_items(), 0) {
  // Transactions are sorted-unique, so every occurrence sets a fresh bit
  // and the per-item count can accumulate in the same single pass — no
  // second popcount sweep over the finished bitmaps. Block-backed sources
  // visit the same transactions at the same global TIDs, so the bitmaps
  // come out bit-identical to an in-memory build.
  source.ForEachBlock([&](int64_t first_txn, const TransactionDb& block) {
    const int64_t n = block.num_transactions();
    for (int64_t t = 0; t < n; ++t) {
      const int64_t tid = first_txn + t;
      const uint64_t bit = 1ULL << (tid & 63);
      const int64_t word = tid >> 6;
      for (int32_t item : block.Transaction(t)) {
        bits_[static_cast<size_t>(item) * words_ + word] |= bit;
        ++item_counts_[item];
      }
    }
  });
}

int64_t VerticalIndex::CountIntersection(std::span<const int32_t> items) const {
  if (items.empty()) return num_transactions_;
  if (items.size() == 1) return item_counts_[items[0]];

  constexpr size_t kStackStreams = 16;
  const uint64_t* stack_ptrs[kStackStreams];
  std::vector<const uint64_t*> heap_ptrs;
  const uint64_t** ptrs = stack_ptrs;
  if (items.size() > kStackStreams) {
    heap_ptrs.resize(items.size());
    ptrs = heap_ptrs.data();
  }
  for (size_t m = 0; m < items.size(); ++m) {
    ptrs[m] = bits_.data() + static_cast<size_t>(items[m]) * words_;
  }
  // The k streams advance together, so they stay cache-resident for any
  // practical itemset size.
  int64_t count = 0;
  for (int64_t w = 0; w < words_; ++w) {
    uint64_t word = ptrs[0][w];
    for (size_t m = 1; m < items.size(); ++m) word &= ptrs[m][w];
    count += Popcount(word);
  }
  return count;
}

}  // namespace focus::data
