#ifndef FOCUS_DATA_BLOCK_TXN_DB_H_
#define FOCUS_DATA_BLOCK_TXN_DB_H_

#include <algorithm>
#include <cstdint>
#include <future>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "data/block_store.h"
#include "data/transaction_db.h"

namespace focus::data {

// ---------------------------------------------------------------------------
// Out-of-core TransactionDb: the paper's 1M.20L.1K Quest datasets no longer
// fit the "materialize everything" row store, so BlockTransactionDbWriter
// streams transactions into fixed-size blocks (block_store.h codec, kind =
// transactions) and BlockTransactionDb serves them back block-at-a-time
// through a bounded LRU cache with async read-ahead. Each decoded block IS a
// small TransactionDb, so every existing kernel (SupportCounter::CountRange,
// VerticalIndex's build loop, ...) runs unchanged over block views — and
// because all of them compute integer counts over a bag of transactions,
// block-streamed results are bit-identical to the in-memory path, which
// tests/laws/laws_block_store_test.cc pins EXPECT_EQ-exact.
//
// Block payload codec (canonical; loaders reject anything else):
//   per transaction: varint(k) then, for k > 0, varint(items[0]) followed by
//   k-1 varint gaps (strictly positive — the sorted-unique invariant of
//   TransactionDb, enforced at decode). Per-block directory meta = number of
//   transactions in the block; file meta = {num_items, num_transactions}.
// ---------------------------------------------------------------------------

// Streams transactions into the block codec. Append-only, not thread-safe.
// Mirrors TransactionDb::AddTransaction semantics exactly (sorts, dedupes,
// range-checks), so writing a stream of transactions through either path
// yields the same logical database.
class BlockTransactionDbWriter {
 public:
  BlockTransactionDbWriter(std::ostream& out, int32_t num_items,
                           int64_t block_size = BlockStoreOptions{}.block_size);

  void Add(std::span<const int32_t> items);
  // Flushes the partial block and writes directory + footer.
  void Finish();

  int32_t num_items() const { return num_items_; }
  int64_t num_transactions() const { return num_transactions_; }

 private:
  void FlushBlock();

  BlockFileWriter writer_;
  const int32_t num_items_;
  const int64_t block_size_;
  std::string buffer_;
  std::string encoded_;  // per-Add scratch, reused across calls
  int64_t buffer_transactions_ = 0;
  int64_t num_transactions_ = 0;
  std::vector<int32_t> scratch_;
  bool finished_ = false;
};

// Read side: validates the whole file once at Open (structure + every block
// checksum + canonical payload decode, streamed in bounded memory), then
// serves pinned decoded blocks through the cache. Thread-safe; parallel
// counting shards fetch blocks concurrently.
class BlockTransactionDb {
 public:
  // Full-validation open. Null + `*error` on any corruption, so later
  // accessors never have to surface decode errors (a post-open mismatch
  // means the file changed underneath us and is a FOCUS_CHECK).
  static std::unique_ptr<BlockTransactionDb> Open(
      std::unique_ptr<std::istream> in, const BlockStoreOptions& options,
      std::string* error);
  static std::unique_ptr<BlockTransactionDb> OpenFile(
      const std::string& path, const BlockStoreOptions& options,
      std::string* error);

  ~BlockTransactionDb();

  BlockTransactionDb(const BlockTransactionDb&) = delete;
  BlockTransactionDb& operator=(const BlockTransactionDb&) = delete;

  int32_t num_items() const { return num_items_; }
  int64_t num_transactions() const { return num_transactions_; }
  int64_t num_blocks() const { return reader_->num_blocks(); }
  const BlockStoreOptions& options() const { return options_; }

  // Global index of the first transaction in `block`.
  int64_t BlockFirstTransaction(int64_t block) const {
    return block_first_txn_[block];
  }
  int64_t BlockNumTransactions(int64_t block) const {
    return block_first_txn_[block + 1] - block_first_txn_[block];
  }
  // Index of the block holding global transaction `txn` — the random-access
  // entry point bootstrap resampling uses (sampling.cc sorts its index
  // draws so each needed block decodes once).
  int64_t BlockContaining(int64_t txn) const {
    FOCUS_CHECK_GE(txn, 0);
    FOCUS_CHECK_LT(txn, num_transactions_);
    const auto it = std::upper_bound(block_first_txn_.begin(),
                                     block_first_txn_.end(), txn);
    return (it - block_first_txn_.begin()) - 1;
  }

  // The decoded block, pinned by the returned shared_ptr (cache eviction
  // never invalidates it). Cache miss decodes inline on the calling thread
  // — never waits on an in-flight prefetch, so it is safe to call from
  // inside pool tasks (no nested-wait deadlock); a rare duplicate decode
  // under that race is benign.
  std::shared_ptr<const TransactionDb> Block(int64_t block) const;

  // Schedules an async decode of `block` into the cache on options().pool
  // (no-op without a pool, or when the block is cached / already in
  // flight). The destructor drains in-flight prefetches.
  void Prefetch(int64_t block) const;

  // Sequential block scan with read-ahead: fn(first_txn, const
  // TransactionDb& block). With a pool, up to options().readahead_blocks
  // blocks decode ahead of the consumer (double-buffered at 2).
  template <typename Fn>
  void ForEachBlock(Fn&& fn) const {
    const int64_t n = num_blocks();
    for (int64_t b = 0; b < n; ++b) {
      for (int64_t a = b + 1; a < n && a <= b + options_.readahead_blocks;
           ++a) {
        Prefetch(a);
      }
      const std::shared_ptr<const TransactionDb> block = Block(b);
      fn(BlockFirstTransaction(b), *block);
    }
  }

  // fn(global_transaction_index, std::span<const int32_t> items).
  template <typename Fn>
  void ForEachTransaction(Fn&& fn) const {
    ForEachBlock([&](int64_t first_txn, const TransactionDb& block) {
      const int64_t n = block.num_transactions();
      for (int64_t t = 0; t < n; ++t) {
        fn(first_txn + t, block.Transaction(t));
      }
    });
  }

  // Re-encodes every block (through the cache) into `out`, preserving the
  // loaded block boundaries: save -> load -> save is a byte fixed point.
  void SaveTo(std::ostream& out) const;

  // Cache observability for the eviction/pinning tests.
  int64_t cache_hits() const { return cache_.hits(); }
  int64_t cache_misses() const { return cache_.misses(); }
  int64_t cache_evictions() const { return cache_.evictions(); }

 private:
  BlockTransactionDb(std::unique_ptr<BlockFileReader> reader,
                     const BlockStoreOptions& options, int32_t num_items,
                     int64_t num_transactions,
                     std::vector<int64_t> block_first_txn)
      : reader_(std::move(reader)),
        options_(options),
        num_items_(num_items),
        num_transactions_(num_transactions),
        block_first_txn_(std::move(block_first_txn)),
        cache_(options.cache_budget_bytes) {}

  // Reads + decodes `block` and publishes it to the cache. Requires the
  // open-time validation to have passed; any failure here is fatal.
  std::shared_ptr<const TransactionDb> FetchBlock(int64_t block) const;

  std::unique_ptr<BlockFileReader> reader_;
  const BlockStoreOptions options_;
  const int32_t num_items_;
  const int64_t num_transactions_;
  std::vector<int64_t> block_first_txn_;  // num_blocks + 1 entries

  mutable BlockCache<TransactionDb> cache_;
  mutable common::Mutex mu_;
  mutable std::unordered_set<int64_t> in_flight_ GUARDED_BY(mu_);
  mutable std::vector<std::future<void>> pending_ GUARDED_BY(mu_);
};

// Decodes one canonical transaction-block payload into `out` (which must be
// empty, constructed with the right num_items). Exposed for the fuzzer.
bool DecodeTransactionBlock(std::string_view payload, int32_t num_items,
                            TransactionDb* out, std::string* error);
// Appends the canonical encoding of one (sorted-unique) transaction.
void EncodeTransaction(std::span<const int32_t> items, std::string& out);

}  // namespace focus::data

#endif  // FOCUS_DATA_BLOCK_TXN_DB_H_
