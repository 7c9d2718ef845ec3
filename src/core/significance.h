#ifndef FOCUS_CORE_SIGNIFICANCE_H_
#define FOCUS_CORE_SIGNIFICANCE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/thread_pool.h"
#include "core/functions.h"
#include "data/dataset.h"
#include "data/transaction_db.h"
#include "data/txn_source.h"
#include "itemsets/apriori.h"
#include "tree/cart_builder.h"

namespace focus::core {

// The qualification procedure of §3.4: is an observed deviation d between
// two datasets statistically significant, i.e. unlikely if both datasets
// were generated by the same process?
//
// The null distribution F of deviations is estimated by bootstrapping
// (Efron & Tibshirani [14]): the pooled bag D1 ∪ D2 approximates the
// common process; each replicate resamples |D1| and |D2| tuples with
// replacement from the pool, re-induces both models and recomputes the
// deviation. sig(d) is the percentage of the null distribution lying
// strictly below d — the paper reports values such as "99" (significant)
// and "1"/"2" (not significant) in Figures 13 and 14.

struct SignificanceOptions {
  int num_replicates = 20;
  uint64_t seed = 0x5eed;
  // Optional worker pool: LitsNullDeviations runs its replicates across
  // it, at most num_threads() + 1 at a time (bit-identical result). The
  // other procedures run serially either way.
  common::ThreadPool* pool = nullptr;
};

struct SignificanceResult {
  double deviation = 0.0;           // observed delta_(f,g)(M1, M2)
  double significance_percent = 0;  // sig(delta) in [0, 100)
};

// lits-models: models are mined from each (re)sampled database with
// `apriori_options`. The observed deviation streams block-backed operands
// block by block, and the null distribution is LitsNullDeviations', which
// never copies a resample. The RNG draws and every count are the same for
// either backend, so the result is bit-identical across backends.
SignificanceResult LitsDeviationSignificance(
    data::TxnSourceRef d1, data::TxnSourceRef d2,
    const lits::AprioriOptions& apriori_options, const DeviationFunction& fn,
    const SignificanceOptions& options);

// LitsNullDeviations counts each resample in 32-bit cells, so the pool
// d1 ++ d2 may hold at most this many transactions (checked).
// serve::MonitorService::Ingest refuses a snapshot that would exceed it.
inline constexpr int64_t kMaxNullPoolTransactions =
    std::numeric_limits<uint32_t>::max();

// The pooled null distribution alone: one deviation per bootstrap
// replicate, in replicate order, for callers that already hold the
// observed deviation (LitsChangeMonitor computes it by scanning both
// operands). LitsDeviationSignificance(d1, d2, …).significance_percent
// equals stats::SignificancePercent(observed, LitsNullDeviations(d1, d2,
// …)).
//
// Replicate r draws its |d1| then its |d2| pool indices from one rng
// seeded with options.seed, in replicate order, so the draws do not
// depend on the pool. A replicate's value is the deviation between the
// models Apriori mines from its two resamples, each extended to their
// GCR, bit for bit, but no resample is copied and nothing is counted
// twice: the draws become per-row multiplicities over the pool, both
// resamples are mined together (lits::MineLevels, one pass over the drawn
// rows per level), and the deviation is folded from the integer counts
// those passes leave for every itemset frequent in either resample.
//
// With options.pool, the replicates run in batches of at most
// pool->num_threads() + 1: the batch's indices are drawn first, then its
// replicates run concurrently, each into its own slot, so memory grows
// with the pool's width and not with num_replicates. The calling thread
// runs replicates too, so the call may be made from inside a task of the
// same pool.
std::vector<double> LitsNullDeviations(
    data::TxnSourceRef d1, data::TxnSourceRef d2,
    const lits::AprioriOptions& apriori_options, const DeviationFunction& fn,
    const SignificanceOptions& options);

// dt-models: trees are grown from each (re)sampled dataset with
// `cart_options`.
SignificanceResult DtDeviationSignificance(const data::Dataset& d1,
                                           const data::Dataset& d2,
                                           const dt::CartOptions& cart_options,
                                           const DeviationFunction& fn,
                                           const SignificanceOptions& options);

// Snapshot-growth qualification (the paper's Section 7 "D + block"
// rows): D2 = D1 ++ block. The pooled null above is wrong here — D2
// shares all of D1's tuples, so ANY pooled resample pair varies more than
// the observed pair and drift in a small block would drown. The right
// null hypothesis is "the appended block was drawn from D1's process":
// each replicate appends |block| tuples resampled from D1 and recomputes
// the deviation. sig(d) is again the percentage of null deviations below
// the observed one.
//
// Caveat (dt-models at small |D1|): a block resampled from D1 repeats
// existing tuples exactly, so the re-grown tree keeps its split
// thresholds; a fresh same-process sample perturbs them slightly. The
// null therefore understates fresh-sample variance and can over-flag at
// very small scales. Compare deviations (not just sig) when |D1| is
// small.

SignificanceResult LitsBlockSignificance(
    const data::TransactionDb& base, const data::TransactionDb& block,
    const lits::AprioriOptions& apriori_options, const DeviationFunction& fn,
    const SignificanceOptions& options);

SignificanceResult DtBlockSignificance(const data::Dataset& base,
                                       const data::Dataset& block,
                                       const dt::CartOptions& cart_options,
                                       const DeviationFunction& fn,
                                       const SignificanceOptions& options);

}  // namespace focus::core

#endif  // FOCUS_CORE_SIGNIFICANCE_H_
