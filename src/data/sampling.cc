#include "data/sampling.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>

#include "common/check.h"

namespace focus::data {
namespace {

// Copies source transaction `txn` into rows[slot] for every (txn, slot)
// pair, visiting pairs in ascending transaction order so a block-backed
// source decodes each needed block exactly once. `txn_slots` is reordered.
void GatherRows(TxnSourceRef source,
                std::vector<std::pair<int64_t, int64_t>>& txn_slots,
                std::vector<std::vector<int32_t>>& rows) {
  std::sort(txn_slots.begin(), txn_slots.end());
  if (source.memory() != nullptr) {
    for (const auto& [txn, slot] : txn_slots) {
      const auto items = source.memory()->Transaction(txn);
      rows[slot].assign(items.begin(), items.end());
    }
    return;
  }
  const BlockTransactionDb& db = *source.block();
  int64_t current_block = -1;
  std::shared_ptr<const TransactionDb> pin;
  for (const auto& [txn, slot] : txn_slots) {
    const int64_t block = db.BlockContaining(txn);
    if (block != current_block) {
      pin = db.Block(block);
      current_block = block;
    }
    const auto items = pin->Transaction(txn - db.BlockFirstTransaction(block));
    rows[slot].assign(items.begin(), items.end());
  }
}

}  // namespace

std::vector<int64_t> SampleIndicesWithoutReplacement(int64_t n, double fraction,
                                                     std::mt19937_64& rng) {
  FOCUS_CHECK_GE(fraction, 0.0);
  FOCUS_CHECK_LE(fraction, 1.0);
  const int64_t k = static_cast<int64_t>(fraction * static_cast<double>(n));
  std::vector<int64_t> pool(n);
  std::iota(pool.begin(), pool.end(), 0);
  // Partial Fisher–Yates: after i swaps, pool[0..i) is a uniform sample.
  for (int64_t i = 0; i < k; ++i) {
    std::uniform_int_distribution<int64_t> pick(i, n - 1);
    std::swap(pool[i], pool[pick(rng)]);
  }
  pool.resize(k);
  return pool;
}

std::vector<int64_t> SampleIndicesWithReplacement(int64_t n, int64_t count,
                                                  std::mt19937_64& rng) {
  FOCUS_CHECK_GT(n, 0);
  std::uniform_int_distribution<int64_t> pick(0, n - 1);
  std::vector<int64_t> indices(count);
  for (int64_t i = 0; i < count; ++i) indices[i] = pick(rng);
  return indices;
}

Dataset TakeRows(const Dataset& dataset, const std::vector<int64_t>& indices) {
  Dataset out(dataset.schema());
  out.Reserve(static_cast<int64_t>(indices.size()));
  for (int64_t row : indices) {
    out.AddRow(dataset.Row(row), dataset.Label(row));
  }
  return out;
}

TransactionDb TakeTransactions(TxnSourceRef source,
                               const std::vector<int64_t>& indices) {
  if (const TransactionDb* db = source.memory()) {
    TransactionDb out(db->num_items());
    for (int64_t t : indices) out.AddTransaction(db->Transaction(t));
    return out;
  }
  std::vector<std::pair<int64_t, int64_t>> txn_slots;
  txn_slots.reserve(indices.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    txn_slots.emplace_back(indices[i], static_cast<int64_t>(i));
  }
  std::vector<std::vector<int32_t>> rows(indices.size());
  GatherRows(source, txn_slots, rows);
  TransactionDb out(source.num_items());
  for (const std::vector<int32_t>& row : rows) out.AddTransaction(row);
  return out;
}

TransactionDb TakeTransactionsPooled(TxnSourceRef a, TxnSourceRef b,
                                     const std::vector<int64_t>& indices) {
  FOCUS_CHECK_EQ(a.num_items(), b.num_items());
  const int64_t na = a.num_transactions();
  if (a.memory() != nullptr && b.memory() != nullptr) {
    TransactionDb out(a.num_items());
    for (const int64_t t : indices) {
      out.AddTransaction(t < na ? a.memory()->Transaction(t)
                                : b.memory()->Transaction(t - na));
    }
    return out;
  }
  std::vector<std::pair<int64_t, int64_t>> a_slots;
  std::vector<std::pair<int64_t, int64_t>> b_slots;
  for (size_t i = 0; i < indices.size(); ++i) {
    const int64_t t = indices[i];
    if (t < na) {
      a_slots.emplace_back(t, static_cast<int64_t>(i));
    } else {
      b_slots.emplace_back(t - na, static_cast<int64_t>(i));
    }
  }
  std::vector<std::vector<int32_t>> rows(indices.size());
  GatherRows(a, a_slots, rows);
  GatherRows(b, b_slots, rows);
  TransactionDb out(a.num_items());
  for (const std::vector<int32_t>& row : rows) out.AddTransaction(row);
  return out;
}

Dataset SampleDataset(const Dataset& dataset, double fraction,
                      std::mt19937_64& rng) {
  return TakeRows(dataset, SampleIndicesWithoutReplacement(dataset.num_rows(),
                                                           fraction, rng));
}

TransactionDb SampleTransactions(const TransactionDb& db, double fraction,
                                 std::mt19937_64& rng) {
  return TakeTransactions(
      db, SampleIndicesWithoutReplacement(db.num_transactions(), fraction, rng));
}

}  // namespace focus::data
