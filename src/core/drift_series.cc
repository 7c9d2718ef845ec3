#include "core/drift_series.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "stats/descriptive.h"

namespace focus::core {

DeviationCusum::DeviationCusum(const CusumOptions& options)
    : options_(options) {
  FOCUS_CHECK_GE(options_.warmup, 2);
  FOCUS_CHECK_GE(options_.slack, 0.0);
  FOCUS_CHECK_GT(options_.decision_threshold, 0.0);
}

DriftPoint DeviationCusum::Observe(double deviation) {
  DriftPoint point;
  point.deviation = deviation;

  if (!baseline_ready_) {
    warmup_values_.push_back(deviation);
    if (static_cast<int>(warmup_values_.size()) >= options_.warmup) {
      mean_ = stats::Mean(warmup_values_);
      sd_ = stats::StdDev(warmup_values_);
      // Degenerate warmup (constant values): fall back to a fraction of
      // the mean so the detector still has a scale.
      if (sd_ <= 0.0) sd_ = std::max(1e-12, 0.05 * std::fabs(mean_));
      baseline_ready_ = true;
    }
    return point;
  }

  const double standardized = (deviation - mean_) / sd_;
  statistic_ = std::max(0.0, statistic_ + standardized - options_.slack);
  point.cusum = statistic_;
  if (statistic_ > options_.decision_threshold) {
    point.change_point = true;
    statistic_ = 0.0;  // reset after signalling
  }
  return point;
}

std::vector<DriftPoint> DetectDrift(const std::vector<double>& deviations,
                                    const CusumOptions& options) {
  DeviationCusum detector(options);
  std::vector<DriftPoint> annotated;
  annotated.reserve(deviations.size());
  for (double deviation : deviations) {
    annotated.push_back(detector.Observe(deviation));
  }
  return annotated;
}

}  // namespace focus::core
