#ifndef FOCUS_DATA_SAMPLING_H_
#define FOCUS_DATA_SAMPLING_H_

#include <cstdint>
#include <random>
#include <vector>

#include "data/dataset.h"
#include "data/transaction_db.h"
#include "data/txn_source.h"

namespace focus::data {

// Random-sampling primitives used by the sample-size study (Section 6 of
// the paper) and by the bootstrap qualification procedure (Section 3.4).
// All functions are deterministic given the std::mt19937_64 state.

// Returns floor(fraction * n) distinct row indices, uniformly without
// replacement (partial Fisher–Yates).
std::vector<int64_t> SampleIndicesWithoutReplacement(int64_t n, double fraction,
                                                     std::mt19937_64& rng);

// Returns `count` row indices uniformly with replacement.
std::vector<int64_t> SampleIndicesWithReplacement(int64_t n, int64_t count,
                                                  std::mt19937_64& rng);

// Materializes the rows named by `indices`.
Dataset TakeRows(const Dataset& dataset, const std::vector<int64_t>& indices);

// Same extraction over either transaction backend. Block-backed sources
// are visited in ascending transaction order (each needed block decodes
// once) but the result places transactions at their `indices` positions,
// so the output is byte-identical to an extraction from the in-memory
// copy.
TransactionDb TakeTransactions(TxnSourceRef source,
                               const std::vector<int64_t>& indices);

// Extraction from the LOGICAL concatenation a ++ b without materializing
// the pool: `indices` range over [0, |a| + |b|), with index i < |a| naming
// a's transaction i and i >= |a| naming b's transaction i - |a|. Equal to
// TakeTransactions(pool, indices) for pool = a ++ b. It copies a bootstrap
// resample as the paper composes a replicate (resample, mine, deviate):
// the law that core::LitsNullDeviations, which copies no resample, is
// held to, and perfbench's replay, build their oracle with it.
TransactionDb TakeTransactionsPooled(TxnSourceRef a, TxnSourceRef b,
                                     const std::vector<int64_t>& indices);

// Simple-random-sample helpers (without replacement).
Dataset SampleDataset(const Dataset& dataset, double fraction,
                      std::mt19937_64& rng);
TransactionDb SampleTransactions(const TransactionDb& db, double fraction,
                                 std::mt19937_64& rng);

}  // namespace focus::data

#endif  // FOCUS_DATA_SAMPLING_H_
