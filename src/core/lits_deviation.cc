#include "core/lits_deviation.h"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "common/check.h"
#include "itemsets/support_counter.h"

namespace focus::core {
namespace {

// Supports of `regions` w.r.t. a database, reusing the model's stored
// measure component where available; the itemsets the model lacks are
// counted by `count_missing` (one horizontal scan, or vertical bitmap
// probes against a prebuilt index).
template <typename CountMissing>
std::vector<double> ExtendModelWith(const std::vector<lits::Itemset>& regions,
                                    const lits::LitsModel& model,
                                    const CountMissing& count_missing) {
  std::vector<double> supports(regions.size(), 0.0);
  std::vector<lits::Itemset> missing;
  std::vector<size_t> missing_slots;
  for (size_t i = 0; i < regions.size(); ++i) {
    const double stored = model.SupportOr(regions[i], -1.0);
    if (stored >= 0.0) {
      supports[i] = stored;
    } else {
      missing.push_back(regions[i]);
      missing_slots.push_back(i);
    }
  }
  if (!missing.empty()) {
    const std::vector<double> counted = count_missing(missing);
    for (size_t i = 0; i < missing.size(); ++i) {
      supports[missing_slots[i]] = counted[i];
    }
  }
  return supports;
}

std::vector<double> ExtendModel(const std::vector<lits::Itemset>& regions,
                                const lits::LitsModel& model,
                                data::TxnSourceRef source) {
  return ExtendModelWith(
      regions, model, [source](const std::vector<lits::Itemset>& missing) {
        return lits::CountSupports(source, missing);
      });
}

std::vector<double> ExtendModel(const std::vector<lits::Itemset>& regions,
                                const lits::LitsModel& model,
                                const data::VerticalIndex& index) {
  return ExtendModelWith(
      regions, model, [&index](const std::vector<lits::Itemset>& missing) {
        return lits::SupportCounter(missing, index.num_items())
            .CountRelative(index);
      });
}

// delta^1_(f,g) once both measure components are in hand.
double AggregateRegionDiffs(const std::vector<double>& s1, double n1,
                            const std::vector<double>& s2, double n2,
                            const DeviationFunction& fn) {
  std::vector<double> diffs(s1.size());
  for (size_t i = 0; i < s1.size(); ++i) {
    diffs[i] = fn.f(s1[i] * n1, s2[i] * n2, n1, n2);
  }
  return AggregateValues(fn.g, diffs);
}

}  // namespace

std::vector<double> LitsExtendModel(const std::vector<lits::Itemset>& regions,
                                    const lits::LitsModel& model,
                                    const data::VerticalIndex* index) {
  FOCUS_CHECK(index != nullptr) << "measure extension needs an index";
  return ExtendModel(regions, model, *index);
}

double LitsAggregateRegionDiffs(const std::vector<double>& s1, double n1,
                                const std::vector<double>& s2, double n2,
                                const DeviationFunction& fn) {
  return AggregateRegionDiffs(s1, n1, s2, n2, fn);
}

std::vector<lits::Itemset> LitsGcr(const lits::LitsModel& m1,
                                   const lits::LitsModel& m2) {
  std::vector<lits::Itemset> gcr = m1.StructuralComponent();
  for (const auto& [itemset, support] : m2.supports()) {
    if (!m1.Contains(itemset)) gcr.push_back(itemset);
  }
  std::sort(gcr.begin(), gcr.end());
  return gcr;
}

double LitsDeviationOverRegions(const std::vector<lits::Itemset>& regions,
                                const data::VerticalIndex* i1,
                                const data::VerticalIndex* i2,
                                const DeviationFunction& fn) {
  FOCUS_CHECK(i1 != nullptr && i2 != nullptr) << "deviation needs both indexes";
  const lits::SupportCounter counter1(regions, i1->num_items());
  const lits::SupportCounter counter2(regions, i2->num_items());
  return AggregateRegionDiffs(counter1.CountRelative(*i1),
                              static_cast<double>(i1->num_transactions()),
                              counter2.CountRelative(*i2),
                              static_cast<double>(i2->num_transactions()), fn);
}

double LitsDeviation(const lits::LitsModel& m1, const data::VerticalIndex* i1,
                     const lits::LitsModel& m2, const data::VerticalIndex* i2,
                     const DeviationFunction& fn) {
  FOCUS_CHECK(i1 != nullptr && i2 != nullptr) << "deviation needs both indexes";
  const std::vector<lits::Itemset> gcr = LitsGcr(m1, m2);
  return AggregateRegionDiffs(ExtendModel(gcr, m1, *i1),
                              static_cast<double>(i1->num_transactions()),
                              ExtendModel(gcr, m2, *i2),
                              static_cast<double>(i2->num_transactions()), fn);
}

double LitsDeviationOverRegions(const std::vector<lits::Itemset>& regions,
                                data::TxnSourceRef s1, data::TxnSourceRef s2,
                                const DeviationFunction& fn) {
  return AggregateRegionDiffs(lits::CountSupports(s1, regions),
                              static_cast<double>(s1.num_transactions()),
                              lits::CountSupports(s2, regions),
                              static_cast<double>(s2.num_transactions()), fn);
}

double LitsDeviation(const lits::LitsModel& m1, data::TxnSourceRef s1,
                     const lits::LitsModel& m2, data::TxnSourceRef s2,
                     const DeviationFunction& fn) {
  const std::vector<lits::Itemset> gcr = LitsGcr(m1, m2);
  return AggregateRegionDiffs(ExtendModel(gcr, m1, s1),
                              static_cast<double>(s1.num_transactions()),
                              ExtendModel(gcr, m2, s2),
                              static_cast<double>(s2.num_transactions()), fn);
}

double LitsDeviationFocused(const lits::LitsModel& m1, data::TxnSourceRef s1,
                            const lits::LitsModel& m2, data::TxnSourceRef s2,
                            const ItemsetPredicate& focus,
                            const DeviationFunction& fn) {
  std::vector<lits::Itemset> focused;
  for (lits::Itemset& itemset : LitsGcr(m1, m2)) {
    if (focus(itemset)) focused.push_back(std::move(itemset));
  }
  if (focused.empty()) return 0.0;
  return AggregateRegionDiffs(ExtendModel(focused, m1, s1),
                              static_cast<double>(s1.num_transactions()),
                              ExtendModel(focused, m2, s2),
                              static_cast<double>(s2.num_transactions()), fn);
}

ItemsetPredicate WithinItems(std::vector<int32_t> department_items) {
  auto allowed = std::make_shared<std::unordered_set<int32_t>>(
      department_items.begin(), department_items.end());
  return [allowed](const lits::Itemset& itemset) {
    for (int32_t item : itemset.items()) {
      if (!allowed->count(item)) return false;
    }
    return true;
  };
}

ItemsetPredicate ContainsItem(int32_t item) {
  return [item](const lits::Itemset& itemset) {
    const auto& items = itemset.items();
    return std::binary_search(items.begin(), items.end(), item);
  };
}

std::vector<LitsRegionDeviation> LitsPerRegionDeviations(
    const lits::LitsModel& m1, data::TxnSourceRef s1,
    const lits::LitsModel& m2, data::TxnSourceRef s2, const DiffFn& f) {
  const std::vector<lits::Itemset> gcr = LitsGcr(m1, m2);
  const std::vector<double> supports1 = ExtendModel(gcr, m1, s1);
  const std::vector<double> supports2 = ExtendModel(gcr, m2, s2);
  const double n1 = static_cast<double>(s1.num_transactions());
  const double n2 = static_cast<double>(s2.num_transactions());

  std::vector<LitsRegionDeviation> result(gcr.size());
  for (size_t i = 0; i < gcr.size(); ++i) {
    result[i].itemset = gcr[i];
    result[i].support1 = supports1[i];
    result[i].support2 = supports2[i];
    result[i].deviation = f(supports1[i] * n1, supports2[i] * n2, n1, n2);
  }
  return result;
}

}  // namespace focus::core
