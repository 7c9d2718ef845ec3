#ifndef FOCUS_DATA_TXN_SOURCE_H_
#define FOCUS_DATA_TXN_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/check.h"
#include "data/block_txn_db.h"
#include "data/transaction_db.h"

namespace focus::data {

// Non-owning reference to EITHER transaction store: implicitly
// constructible from both backends (and from pointers, which may be null).
// It is the one transaction parameter of every scanning entry point
// (VerticalIndex builds, SupportCounter, Apriori, the lits deviations and
// significance, LitsChangeMonitor, ModelCache): none has a separate
// TransactionDb overload, and `f(db)` call sites compile through the
// implicit constructor. Consumers iterate per-block TransactionDb views;
// for the in-memory backend the whole database is block 0, at zero
// copies. Every kernel computes integer counts over a bag of
// transactions, so results are BIT-IDENTICAL across backends, block
// sizes, and block-aligned parallel shardings —
// tests/laws/laws_block_store_test.cc pins it EXPECT_EQ-exact.
class TxnSourceRef {
 public:
  // A pinned per-block view: `db` stays valid while `pin` is held (the pin
  // is empty for the in-memory backend, whose view is the source itself).
  struct BlockView {
    std::shared_ptr<const TransactionDb> pin;
    const TransactionDb* db = nullptr;
    int64_t first_transaction = 0;
  };

  TxnSourceRef() = default;
  TxnSourceRef(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  // NOLINTNEXTLINE(google-explicit-constructor)
  TxnSourceRef(const TransactionDb& db) : memory_(&db) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  TxnSourceRef(const BlockTransactionDb& db) : block_(&db) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  TxnSourceRef(const TransactionDb* db) : memory_(db) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  TxnSourceRef(const BlockTransactionDb* db) : block_(db) {}

  bool has_value() const { return memory_ != nullptr || block_ != nullptr; }
  explicit operator bool() const { return has_value(); }

  int32_t num_items() const {
    return memory_ != nullptr ? memory_->num_items() : Block().num_items();
  }

  int64_t num_transactions() const {
    return memory_ != nullptr ? memory_->num_transactions()
                              : Block().num_transactions();
  }

  int64_t num_blocks() const {
    return memory_ != nullptr ? 1 : Block().num_blocks();
  }

  int64_t BlockFirstTransaction(int64_t block) const {
    if (memory_ != nullptr) {
      FOCUS_CHECK_EQ(block, 0);
      return 0;
    }
    return Block().BlockFirstTransaction(block);
  }

  BlockView GetBlock(int64_t block) const {
    if (memory_ != nullptr) {
      FOCUS_CHECK_EQ(block, 0);
      return BlockView{nullptr, memory_, 0};
    }
    BlockView view;
    view.pin = Block().Block(block);
    view.db = view.pin.get();
    view.first_transaction = Block().BlockFirstTransaction(block);
    return view;
  }

  // fn(first_transaction, const TransactionDb& block). Sequential, with
  // async read-ahead on the block backend.
  template <typename Fn>
  void ForEachBlock(Fn&& fn) const {
    if (memory_ != nullptr) {
      fn(int64_t{0}, *memory_);
      return;
    }
    Block().ForEachBlock(fn);
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

  // The in-memory database, or null when block-backed (callers that have a
  // materialized fast path test this).
  const TransactionDb* memory() const { return memory_; }
  const BlockTransactionDb* block() const { return block_; }

 private:
  const BlockTransactionDb& Block() const {
    FOCUS_CHECK(block_ != nullptr) << "scanning an empty txn source ref";
    return *block_;
  }

  const TransactionDb* memory_ = nullptr;
  const BlockTransactionDb* block_ = nullptr;
};

}  // namespace focus::data

#endif  // FOCUS_DATA_TXN_SOURCE_H_
