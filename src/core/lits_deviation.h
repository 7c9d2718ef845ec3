#ifndef FOCUS_CORE_LITS_DEVIATION_H_
#define FOCUS_CORE_LITS_DEVIATION_H_

#include <functional>
#include <vector>

#include "core/functions.h"
#include "data/txn_source.h"
#include "data/vertical_index.h"
#include "itemsets/apriori.h"
#include "itemsets/itemset.h"

namespace focus::core {

// FOCUS instantiation for lits-models (§4.1). The refinement relation is
// the superset relation on sets of frequent itemsets; the GCR of two
// models is the UNION of their itemsets (Proposition 4.1).

// Structural union Γ(M1) ⊔ Γ(M2): the GCR, sorted deterministically.
std::vector<lits::Itemset> LitsGcr(const lits::LitsModel& m1,
                                   const lits::LitsModel& m2);

// Extension of both models to an arbitrary common refinement `regions`:
// counts the supports of every region in both databases (one scan each —
// §3.3.1) and aggregates per-region differences. This is
// delta^1_(f,g) of Definition 3.5 applied after extension. Either operand
// may be block-backed: its counting scan then streams block by block in
// bounded memory. Counts are integers either way, so the deviation doubles
// are bit-identical across backends.
double LitsDeviationOverRegions(const std::vector<lits::Itemset>& regions,
                                data::TxnSourceRef s1, data::TxnSourceRef s2,
                                const DeviationFunction& fn);

// delta_(f,g)(M1, M2) of Definition 3.6: extension to the GCR. Models must
// have been induced by s1/s2 respectively (their stored supports are
// reused; only the itemsets missing from each model are re-counted).
double LitsDeviation(const lits::LitsModel& m1, data::TxnSourceRef s1,
                     const lits::LitsModel& m2, data::TxnSourceRef s2,
                     const DeviationFunction& fn);

// Vertical-index overloads: identical results (counts are integers and the
// divisions by |D| match), but the per-region supports missing from each
// model come from AND+popcount over prebuilt TID bitmaps instead of
// re-scanning raw transactions. No served path calls them: perfbench's
// replay and the test oracles do. Both indexes must be non-null (checked).
double LitsDeviationOverRegions(const std::vector<lits::Itemset>& regions,
                                const data::VerticalIndex* i1,
                                const data::VerticalIndex* i2,
                                const DeviationFunction& fn);

double LitsDeviation(const lits::LitsModel& m1, const data::VerticalIndex* i1,
                     const lits::LitsModel& m2, const data::VerticalIndex* i2,
                     const DeviationFunction& fn);

// The two halves of LitsDeviation. The serving layer's reads extend a pair
// of models once and fold every (f, g) from those supports; the sharded
// scatter-gather path (src/shard/) extends each model on its owning shard
// and recombines the supports on the router. Because these are the same
// functions LitsDeviation composes, both answers are bit-identical to it.

// Measure extension of `model`, mined from `source`, to `regions`
// (Definition 3.4): stored supports are reused, and the itemsets the model
// lacks are counted in one scan of `source` (§3.3.1). Every region must
// lie within the source's item universe (checked).
std::vector<double> LitsExtendModel(const std::vector<lits::Itemset>& regions,
                                    const lits::LitsModel& model,
                                    data::TxnSourceRef source);

// delta^1_(f,g) over already-extended measure components: per-region diffs
// in region order, then AggregateValues(fn.g, ...).
double LitsAggregateRegionDiffs(const std::vector<double>& s1, double n1,
                                const std::vector<double>& s2, double n2,
                                const DeviationFunction& fn);

// Focussed deviation delta^R (Definition 5.2) where the focussing region R
// is expressed as a predicate on itemsets (e.g. "itemsets within the shoe
// department's items", §5.1). Regions of the GCR not satisfying the
// predicate are excluded (their intersection with R is empty).
using ItemsetPredicate = std::function<bool(const lits::Itemset&)>;

double LitsDeviationFocused(const lits::LitsModel& m1, data::TxnSourceRef s1,
                            const lits::LitsModel& m2, data::TxnSourceRef s2,
                            const ItemsetPredicate& focus,
                            const DeviationFunction& fn);

// Common focussing predicates.
ItemsetPredicate WithinItems(std::vector<int32_t> department_items);
ItemsetPredicate ContainsItem(int32_t item);

// Per-region deviations over the GCR, for the Rank operator (§5). Returns
// (itemset, support1, support2, difference) tuples.
struct LitsRegionDeviation {
  lits::Itemset itemset;
  double support1 = 0.0;
  double support2 = 0.0;
  double deviation = 0.0;
};

std::vector<LitsRegionDeviation> LitsPerRegionDeviations(
    const lits::LitsModel& m1, data::TxnSourceRef s1,
    const lits::LitsModel& m2, data::TxnSourceRef s2, const DiffFn& f);

}  // namespace focus::core

#endif  // FOCUS_CORE_LITS_DEVIATION_H_
