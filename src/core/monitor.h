#ifndef FOCUS_CORE_MONITOR_H_
#define FOCUS_CORE_MONITOR_H_

#include <cstdint>

#include "common/thread_pool.h"
#include "core/functions.h"
#include "core/significance.h"
#include "data/transaction_db.h"
#include "data/txn_source.h"
#include "data/vertical_index.h"
#include "itemsets/apriori.h"

namespace focus::core {

// Library-level packaging of the paper's motivating workflow (§1): an
// analyst monitors a stream of dataset snapshots and wants to spend the
// expensive analysis only on snapshots whose characteristics actually
// changed. Two-stage screen:
//
//   stage 1 — delta* (Theorem 4.2), computed from the two MODELS only,
//             against a threshold self-calibrated from same-process
//             bootstrap replicates of the reference dataset;
//   stage 2 — only if stage 1 fires: the exact deviation plus the
//             bootstrap significance of §3.4.
struct MonitorOptions {
  lits::AprioriOptions apriori;
  DeviationFunction fn;
  // Alert when delta* exceeds `alert_factor` x the calibrated
  // same-process level.
  double alert_factor = 2.0;
  // Bootstrap replicates used for threshold calibration at construction.
  int calibration_replicates = 5;
  // Significance testing for confirmed alerts (stage 2).
  SignificanceOptions significance;
  uint64_t seed = 0xCA11B;
};

struct MonitorReport {
  double upper_bound = 0.0;   // stage-1 delta*
  bool screened_out = false;  // true => stages 2 skipped, no alert
  double deviation = 0.0;     // stage-2 exact delta (when not screened)
  double significance_percent = 0.0;
  bool alert = false;  // significant change confirmed
};

class LitsChangeMonitor {
 public:
  // Builds the reference model and calibrates the stage-1 threshold by
  // bootstrap-resampling `reference` against itself.
  LitsChangeMonitor(const data::TransactionDb& reference,
                    const MonitorOptions& options);

  // Inspects one snapshot; does NOT update the reference. A block-backed
  // snapshot streams through every stage (mining, stage-2 counting,
  // the bootstrap replicates' counting passes) without ever being
  // materialized as one flat TransactionDb. Reports are bit-identical
  // across backends.
  MonitorReport Inspect(data::TxnSourceRef snapshot) const;

  // Same, with a caller-supplied model of `snapshot` (e.g. from the
  // serving layer's mined-model cache) so stage 1 skips re-mining. The
  // model MUST have been mined from `snapshot` with this monitor's
  // apriori options. Stage 2 extends both models to their GCR by scanning
  // the reference and the snapshot once each (a block-backed snapshot
  // block by block), so a snapshot the screen passes needs no index.
  // Significance reuses that deviation and computes only the null
  // distribution (LitsNullDeviations); with a `pool` (e.g. the serving
  // layer's own, from inside one of its tasks), its replicates run across
  // it. The report is bit-identical for either backend, and with or
  // without a pool.
  MonitorReport InspectWithModel(data::TxnSourceRef snapshot,
                                 const lits::LitsModel& snapshot_model,
                                 common::ThreadPool* pool = nullptr) const;

  // Replaces the reference with `snapshot` (e.g. after an accepted
  // regime change) and re-calibrates.
  void Rebase(const data::TransactionDb& snapshot);

  double alert_threshold() const { return alert_threshold_; }
  const lits::LitsModel& reference_model() const { return reference_model_; }
  // For read paths that extend the reference model through an index (the
  // serving layer's deviation queries); Inspect does not use it.
  const data::VerticalIndex& reference_index() const {
    return reference_index_;
  }

 private:
  void Calibrate();

  MonitorOptions options_;
  data::TransactionDb reference_;
  // Built once per reference (construction / Rebase); declared before the
  // model, whose level 1 takes the index's item counts.
  data::VerticalIndex reference_index_;
  lits::LitsModel reference_model_;
  double alert_threshold_ = 0.0;
};

}  // namespace focus::core

#endif  // FOCUS_CORE_MONITOR_H_
