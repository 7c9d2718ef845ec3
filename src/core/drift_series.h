#ifndef FOCUS_CORE_DRIFT_SERIES_H_
#define FOCUS_CORE_DRIFT_SERIES_H_

#include <cstdint>
#include <vector>

namespace focus::core {

// Change-point detection over a time series of FOCUS deviations.
//
// A monitoring deployment produces one deviation per snapshot (against a
// fixed reference or the previous snapshot). Individual values wiggle
// with sampling noise; a regime change shows up as a sustained upward
// shift. The one-sided CUSUM statistic accumulates evidence of such a
// shift and flags a change-point when it crosses a decision threshold —
// complementing the paper's per-snapshot significance test with a
// sequential view.
struct CusumOptions {
  // Number of initial observations used to estimate the in-control mean
  // and standard deviation.
  int warmup = 5;
  // Slack in standard deviations: drifts smaller than `slack` sigma are
  // absorbed.
  double slack = 0.5;
  // Decision threshold in standard deviations of the warmup noise.
  double decision_threshold = 5.0;
};

struct DriftPoint {
  double deviation = 0.0;  // the observed value
  double cusum = 0.0;      // accumulated one-sided statistic
  bool change_point = false;
};

// Sequential detector; feed deviations in time order.
class DeviationCusum {
 public:
  explicit DeviationCusum(const CusumOptions& options);

  // Processes the next observation and returns its annotated point. The
  // first `warmup` observations estimate the baseline and never flag.
  // After a flagged change-point the statistic resets, so consecutive
  // flags indicate repeated (or continuing, re-confirmed) shifts.
  DriftPoint Observe(double deviation);

  bool baseline_ready() const { return baseline_ready_; }
  double baseline_mean() const { return mean_; }
  double baseline_sd() const { return sd_; }

 private:
  CusumOptions options_;
  std::vector<double> warmup_values_;
  bool baseline_ready_ = false;
  double mean_ = 0.0;
  double sd_ = 0.0;
  double statistic_ = 0.0;
};

// One-shot convenience: annotate a whole series.
std::vector<DriftPoint> DetectDrift(const std::vector<double>& deviations,
                                    const CusumOptions& options);

}  // namespace focus::core

#endif  // FOCUS_CORE_DRIFT_SERIES_H_
