#include "core/monitor.h"

#include <algorithm>
#include <random>
#include <vector>

#include "common/check.h"
#include "core/lits_deviation.h"
#include "core/lits_upper_bound.h"
#include "data/sampling.h"
#include "stats/bootstrap.h"
#include "stats/rng.h"

namespace focus::core {

LitsChangeMonitor::LitsChangeMonitor(const data::TransactionDb& reference,
                                     const MonitorOptions& options)
    : options_(options),
      reference_(reference),
      reference_index_(reference_),
      reference_model_(
          lits::Apriori(reference_, options_.apriori, &reference_index_)) {
  FOCUS_CHECK_GT(options_.calibration_replicates, 0);
  FOCUS_CHECK_GT(options_.alert_factor, 0.0);
  Calibrate();
}

void LitsChangeMonitor::Calibrate() {
  // Same-process level: delta* between the reference model and models of
  // bootstrap resamples of the reference. The threshold is alert_factor
  // times the largest calibration value, so same-process snapshots
  // rarely fire stage 2.
  std::mt19937_64 rng = stats::MakeRng(options_.seed);
  double level = 0.0;
  for (int r = 0; r < options_.calibration_replicates; ++r) {
    const data::TransactionDb replicate = data::TakeTransactions(
        reference_,
        data::SampleIndicesWithReplacement(reference_.num_transactions(),
                                           reference_.num_transactions(), rng));
    const lits::LitsModel replicate_model =
        lits::Apriori(replicate, options_.apriori);
    level = std::max(level, LitsUpperBound(reference_model_, replicate_model,
                                           options_.fn.g));
  }
  alert_threshold_ = options_.alert_factor * level;
}

MonitorReport LitsChangeMonitor::Inspect(data::TxnSourceRef snapshot) const {
  return InspectWithModel(snapshot, lits::Apriori(snapshot, options_.apriori));
}

MonitorReport LitsChangeMonitor::InspectWithModel(
    data::TxnSourceRef snapshot, const lits::LitsModel& snapshot_model,
    common::ThreadPool* pool) const {
  MonitorReport report;
  report.upper_bound =
      LitsUpperBound(reference_model_, snapshot_model, options_.fn.g);
  if (report.upper_bound < alert_threshold_) {
    // Theorem 4.2(1): the exact deviation is at most the bound, so it is
    // also below the alert level — safe to skip the data scans entirely.
    report.screened_out = true;
    return report;
  }
  report.deviation = LitsDeviation(reference_model_, reference_,
                                   snapshot_model, snapshot, options_.fn);
  // The deviation above is LitsDeviationSignificance's, bit for bit, so
  // only its null distribution is left to compute.
  SignificanceOptions significance = options_.significance;
  significance.pool = pool;
  report.significance_percent = stats::SignificancePercent(
      report.deviation, LitsNullDeviations(reference_, snapshot,
                                           options_.apriori, options_.fn,
                                           significance));
  report.alert = report.significance_percent >= 95.0;
  return report;
}

void LitsChangeMonitor::Rebase(const data::TransactionDb& snapshot) {
  reference_ = snapshot;
  reference_index_ = data::VerticalIndex(reference_);
  reference_model_ = lits::Apriori(reference_, options_.apriori, &reference_index_);
  Calibrate();
}

}  // namespace focus::core
