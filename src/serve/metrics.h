#ifndef FOCUS_SERVE_METRICS_H_
#define FOCUS_SERVE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace focus::serve {

// Operational telemetry for the monitoring service: monotonically
// increasing counters, last-value gauges, and bucketed latency
// histograms, collected in a registry that exports one JSON object per
// snapshot (JSONL when appended to a log).

class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram; the default buckets cover latencies from 0.1 ms
// to ~100 s on an exponential grid. Quantiles are estimated by linear
// interpolation within the containing bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds = DefaultLatencyBucketsMs());

  void Observe(double value) EXCLUDES(mutex_);

  int64_t count() const EXCLUDES(mutex_);
  double sum() const EXCLUDES(mutex_);
  double min() const EXCLUDES(mutex_);  // 0 when empty
  double max() const EXCLUDES(mutex_);  // 0 when empty
  double Quantile(double q) const EXCLUDES(mutex_);

  // {"count":N,"sum":S,"min":m,"max":M,"p50":…,"p95":…,"p99":…}
  std::string ToJson() const EXCLUDES(mutex_);

  // Prometheus text exposition: `name_bucket{le="…"}` cumulative series
  // plus `name_sum` / `name_count`, appended to `out`.
  void RenderPrometheus(const std::string& name, std::string* out) const
      EXCLUDES(mutex_);

  static std::vector<double> DefaultLatencyBucketsMs();

 private:
  double QuantileLocked(double q) const REQUIRES(mutex_);

  mutable common::Mutex mutex_;
  // Strictly increasing; implicit +inf last. Immutable after construction
  // (read without the lock).
  std::vector<double> upper_bounds_;
  // size upper_bounds_.size() + 1
  std::vector<int64_t> bucket_counts_ GUARDED_BY(mutex_);
  int64_t count_ GUARDED_BY(mutex_) = 0;
  double sum_ GUARDED_BY(mutex_) = 0.0;
  double min_ GUARDED_BY(mutex_) = 0.0;
  double max_ GUARDED_BY(mutex_) = 0.0;
};

// Named metrics with stable addresses: Get* creates on first use and
// always returns the same object, so hot paths can cache the pointer.
class MetricsRegistry {
 public:
  Counter& GetCounter(const std::string& name) EXCLUDES(mutex_);
  Gauge& GetGauge(const std::string& name) EXCLUDES(mutex_);
  Histogram& GetHistogram(const std::string& name) EXCLUDES(mutex_);

  // One JSON object capturing the current values of every metric:
  //   {"unix_ms":…,"counters":{…},"gauges":{…},"histograms":{…}}
  std::string ToJson() const EXCLUDES(mutex_);

  // Appends ToJson() and a newline (one JSONL record).
  void WriteJsonLine(std::ostream& out) const;

  // Prometheus text exposition format (version 0.0.4): every counter,
  // gauge, and histogram under `prefix_` + a sanitized metric name, with
  // # TYPE comments — what GET /metrics serves and focus_served's
  // --prom textfile contains.
  std::string ToPrometheusText(const std::string& prefix = "focus_") const
      EXCLUDES(mutex_);

 private:
  mutable common::Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mutex_);
};

// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string JsonEscape(const std::string& text);

// Formats a double the way the exporters do (shortest round-trippable).
std::string JsonNumber(double value);

// Maps a registry metric name onto the Prometheus charset: characters
// outside [a-zA-Z0-9_:] become '_'.
std::string PrometheusName(const std::string& name);

// Splits a registry name into its metric family and label block. Counter
// and gauge names may carry labels inline — `requests{shard="0"}` —
// which the text exposition renders as `prefix_requests{shard="0"}` with
// only the family part sanitized (one # TYPE line per family). Names
// without '{' have an empty label part. Histogram names must stay
// label-free (their exposition appends its own {le=…} block).
void SplitPrometheusLabels(const std::string& name, std::string* family,
                           std::string* labels);

}  // namespace focus::serve

#endif  // FOCUS_SERVE_METRICS_H_
