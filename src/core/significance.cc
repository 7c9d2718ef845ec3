#include "core/significance.h"

#include <algorithm>
#include <random>
#include <span>
#include <vector>

#include "common/check.h"
#include "core/dt_deviation.h"
#include "core/lits_deviation.h"
#include "data/sampling.h"
#include "itemsets/level_miner.h"
#include "stats/bootstrap.h"
#include "stats/rng.h"

namespace focus::core {

namespace {

// One replicate's null value from counts alone. Pool row r (d1's rows, then
// d2's) was drawn weights[2r] times into the first resample and
// weights[2r + 1] times into the second. Both resamples are mined as two
// columns of one level loop over the drawn rows; every itemset frequent in
// either comes out with its two counts, in the size-then-lexicographic
// order LitsGcr sorts into, so folding them as LitsDeviation does gives its
// value for the two copied resamples, bit for bit.
double ReplicateDeviation(data::TxnSourceRef d1, data::TxnSourceRef d2,
                          const std::vector<int64_t>& draw1,
                          const std::vector<int64_t>& draw2,
                          const lits::AprioriOptions& apriori_options,
                          const DeviationFunction& fn) {
  FOCUS_CHECK_EQ(d1.num_items(), d2.num_items());
  const int64_t n1 = d1.num_transactions();
  const int64_t pool_rows = n1 + d2.num_transactions();
  FOCUS_CHECK_LE(pool_rows, kMaxNullPoolTransactions);
  std::vector<uint32_t> weights(2 * static_cast<size_t>(pool_rows), 0);
  for (const int64_t t : draw1) ++weights[2 * t];
  for (const int64_t t : draw2) ++weights[2 * t + 1];
  const auto rows = [&](auto&& visit) {
    const auto visit_drawn = [&](int64_t row, std::span<const int32_t> txn) {
      const uint32_t* row_weights = &weights[2 * row];
      if ((row_weights[0] | row_weights[1]) != 0) visit(txn, row_weights);
    };
    d1.ForEachTransaction(visit_drawn);
    d2.ForEachTransaction([&](int64_t t, std::span<const int32_t> txn) {
      visit_drawn(n1 + t, txn);
    });
  };

  const int64_t size1 = static_cast<int64_t>(draw1.size());
  const int64_t size2 = static_cast<int64_t>(draw2.size());
  const double m1 = static_cast<double>(size1);
  const double m2 = static_cast<double>(size2);
  const int32_t num_items = d1.num_items();
  std::vector<double> supports1;
  std::vector<double> supports2;
  lits::MineLevels<uint32_t, 2>(
      num_items,
      {lits::AprioriCountThreshold(apriori_options, size1),
       lits::AprioriCountThreshold(apriori_options, size2)},
      apriori_options.max_itemset_size,
      lits::CountItems<uint32_t, 2>(num_items, rows), rows,
      [&](const auto& /*region*/, const uint32_t* counts) {
        supports1.push_back(static_cast<double>(counts[0]) / m1);
        supports2.push_back(static_cast<double>(counts[1]) / m2);
      });
  return LitsAggregateRegionDiffs(supports1, m1, supports2, m2, fn);
}

}  // namespace

SignificanceResult LitsDeviationSignificance(
    data::TxnSourceRef d1, data::TxnSourceRef d2,
    const lits::AprioriOptions& apriori_options, const DeviationFunction& fn,
    const SignificanceOptions& options) {
  FOCUS_CHECK_GT(options.num_replicates, 0);

  const lits::LitsModel m1 = lits::Apriori(d1, apriori_options);
  const lits::LitsModel m2 = lits::Apriori(d2, apriori_options);

  SignificanceResult result;
  result.deviation = LitsDeviation(m1, d1, m2, d2, fn);
  result.significance_percent = stats::SignificancePercent(
      result.deviation,
      LitsNullDeviations(d1, d2, apriori_options, fn, options));
  return result;
}

std::vector<double> LitsNullDeviations(
    data::TxnSourceRef d1, data::TxnSourceRef d2,
    const lits::AprioriOptions& apriori_options, const DeviationFunction& fn,
    const SignificanceOptions& options) {
  FOCUS_CHECK_GT(options.num_replicates, 0);

  // Replicates resample from the logical pool d1 ++ d2; index draws are
  // over [0, n1 + n2), exactly as if the pool had been materialized.
  const int64_t n1 = d1.num_transactions();
  const int64_t n2 = d2.num_transactions();
  const int replicates = options.num_replicates;
  std::mt19937_64 rng = stats::MakeRng(options.seed);
  std::vector<double> null_values(replicates);

  // A batch's draws are made serially, in replicate order (d1's indices,
  // then d2's), so the rng sequence does not depend on the batch size; its
  // replicates then run one per pool shard. Without a pool, batches of one
  // run inline.
  const int batch =
      options.pool == nullptr ? 1 : options.pool->num_threads() + 1;
  std::vector<std::vector<int64_t>> draws(2 * static_cast<size_t>(batch));
  const auto run = [&](int first, int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      null_values[first + i] = ReplicateDeviation(
          d1, d2, draws[2 * i], draws[2 * i + 1], apriori_options, fn);
    }
  };
  for (int first = 0; first < replicates; first += batch) {
    const int count = std::min(batch, replicates - first);
    for (int i = 0; i < count; ++i) {
      draws[2 * i] = data::SampleIndicesWithReplacement(n1 + n2, n1, rng);
      draws[2 * i + 1] = data::SampleIndicesWithReplacement(n1 + n2, n2, rng);
    }
    if (options.pool == nullptr) {
      run(first, 0, count);
    } else {
      options.pool->ParallelFor(
          0, count, count, [&](int /*shard*/, int64_t begin, int64_t end) {
            run(first, begin, end);
          });
    }
  }
  return null_values;
}

SignificanceResult DtDeviationSignificance(const data::Dataset& d1,
                                           const data::Dataset& d2,
                                           const dt::CartOptions& cart_options,
                                           const DeviationFunction& fn,
                                           const SignificanceOptions& options) {
  FOCUS_CHECK_GT(options.num_replicates, 0);

  const DtModel m1(dt::BuildCart(d1, cart_options), d1);
  const DtModel m2(dt::BuildCart(d2, cart_options), d2);

  DtDeviationOptions deviation_options;
  deviation_options.fn = fn;

  SignificanceResult result;
  result.deviation = DtDeviation(m1, d1, m2, d2, deviation_options);

  data::Dataset pool = d1;
  pool.Append(d2);

  std::mt19937_64 rng = stats::MakeRng(options.seed);
  std::vector<double> null_values;
  null_values.reserve(options.num_replicates);
  for (int r = 0; r < options.num_replicates; ++r) {
    const data::Dataset b1 = data::TakeRows(
        pool,
        data::SampleIndicesWithReplacement(pool.num_rows(), d1.num_rows(), rng));
    const data::Dataset b2 = data::TakeRows(
        pool,
        data::SampleIndicesWithReplacement(pool.num_rows(), d2.num_rows(), rng));
    const DtModel bm1(dt::BuildCart(b1, cart_options), b1);
    const DtModel bm2(dt::BuildCart(b2, cart_options), b2);
    null_values.push_back(DtDeviation(bm1, b1, bm2, b2, deviation_options));
  }
  result.significance_percent =
      stats::SignificancePercent(result.deviation, null_values);
  return result;
}

SignificanceResult LitsBlockSignificance(
    const data::TransactionDb& base, const data::TransactionDb& block,
    const lits::AprioriOptions& apriori_options, const DeviationFunction& fn,
    const SignificanceOptions& options) {
  FOCUS_CHECK_GT(options.num_replicates, 0);
  FOCUS_CHECK_GT(block.num_transactions(), 0);

  const lits::LitsModel base_model = lits::Apriori(base, apriori_options);
  data::TransactionDb extended = base;
  extended.Append(block);
  const lits::LitsModel extended_model =
      lits::Apriori(extended, apriori_options);

  SignificanceResult result;
  result.deviation =
      LitsDeviation(base_model, base, extended_model, extended, fn);

  std::mt19937_64 rng = stats::MakeRng(options.seed);
  std::vector<double> null_values;
  null_values.reserve(options.num_replicates);
  for (int r = 0; r < options.num_replicates; ++r) {
    // Null: the block is more data from base's process.
    data::TransactionDb null_extended = base;
    null_extended.Append(data::TakeTransactions(
        base, data::SampleIndicesWithReplacement(
                  base.num_transactions(), block.num_transactions(), rng)));
    const lits::LitsModel null_model =
        lits::Apriori(null_extended, apriori_options);
    null_values.push_back(
        LitsDeviation(base_model, base, null_model, null_extended, fn));
  }
  result.significance_percent =
      stats::SignificancePercent(result.deviation, null_values);
  return result;
}

SignificanceResult DtBlockSignificance(const data::Dataset& base,
                                       const data::Dataset& block,
                                       const dt::CartOptions& cart_options,
                                       const DeviationFunction& fn,
                                       const SignificanceOptions& options) {
  FOCUS_CHECK_GT(options.num_replicates, 0);
  FOCUS_CHECK_GT(block.num_rows(), 0);

  const DtModel base_model(dt::BuildCart(base, cart_options), base);
  data::Dataset extended = base;
  extended.Append(block);
  const DtModel extended_model(dt::BuildCart(extended, cart_options), extended);

  DtDeviationOptions deviation_options;
  deviation_options.fn = fn;

  SignificanceResult result;
  result.deviation =
      DtDeviation(base_model, base, extended_model, extended, deviation_options);

  std::mt19937_64 rng = stats::MakeRng(options.seed);
  std::vector<double> null_values;
  null_values.reserve(options.num_replicates);
  for (int r = 0; r < options.num_replicates; ++r) {
    data::Dataset null_extended = base;
    null_extended.Append(data::TakeRows(
        base, data::SampleIndicesWithReplacement(base.num_rows(),
                                                 block.num_rows(), rng)));
    const DtModel null_model(dt::BuildCart(null_extended, cart_options),
                             null_extended);
    null_values.push_back(DtDeviation(base_model, base, null_model,
                                      null_extended, deviation_options));
  }
  result.significance_percent =
      stats::SignificancePercent(result.deviation, null_values);
  return result;
}

}  // namespace focus::core
