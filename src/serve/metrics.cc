#include "serve/metrics.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

#include "common/check.h"
#include "common/mutex.h"

namespace focus::serve {

using common::MutexLock;

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";  // JSON has no inf/nan
  // The shortest %.*g that round-trips. No precision below the digit count
  // of the shortest round-trip decimal (std::to_chars) can round-trip, so
  // the search starts there; it usually ends there too.
  char buf[32];
  const char* const end =
      std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::scientific)
          .ptr;
  int precision = 0;
  for (const char* c = buf; c != end && *c != 'e'; ++c) {
    precision += (*c >= '0' && *c <= '9') ? 1 : 0;
  }
  for (; precision < 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::vector<double> Histogram::DefaultLatencyBucketsMs() {
  // 0.1 ms … ~100 s, ~4 buckets per decade.
  std::vector<double> bounds;
  for (double b = 0.1; b < 1.1e5; b *= 1.78) bounds.push_back(b);
  return bounds;
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)),
      bucket_counts_(upper_bounds_.size() + 1, 0) {
  FOCUS_CHECK(std::is_sorted(upper_bounds_.begin(), upper_bounds_.end()));
}

void Histogram::Observe(double value) {
  const size_t bucket =
      std::upper_bound(upper_bounds_.begin(), upper_bounds_.end(), value) -
      upper_bounds_.begin();
  MutexLock lock(&mutex_);
  ++bucket_counts_[bucket];
  sum_ += value;
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
}

int64_t Histogram::count() const {
  MutexLock lock(&mutex_);
  return count_;
}

double Histogram::sum() const {
  MutexLock lock(&mutex_);
  return sum_;
}

double Histogram::min() const {
  MutexLock lock(&mutex_);
  return min_;
}

double Histogram::max() const {
  MutexLock lock(&mutex_);
  return max_;
}

double Histogram::Quantile(double q) const {
  MutexLock lock(&mutex_);
  return QuantileLocked(q);
}

double Histogram::QuantileLocked(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  int64_t cumulative = 0;
  for (size_t b = 0; b < bucket_counts_.size(); ++b) {
    if (bucket_counts_[b] == 0) continue;
    const int64_t next = cumulative + bucket_counts_[b];
    if (static_cast<double>(next) >= target) {
      // Linear interpolation inside bucket b. The open-ended last bucket
      // and the first bucket fall back to the observed extremes.
      const double lo = b == 0 ? min_ : upper_bounds_[b - 1];
      const double hi = b < upper_bounds_.size() ? upper_bounds_[b] : max_;
      const double fraction =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(bucket_counts_[b]);
      return std::clamp(lo + fraction * (hi - lo), min_, max_);
    }
    cumulative = next;
  }
  return max_;
}

std::string Histogram::ToJson() const {
  // One lock for the whole render keeps counts and quantiles coherent.
  MutexLock lock(&mutex_);
  std::string out = "{\"count\":" + std::to_string(count_);
  out += ",\"sum\":" + JsonNumber(sum_);
  out += ",\"min\":" + JsonNumber(min_);
  out += ",\"max\":" + JsonNumber(max_);
  out += ",\"p50\":" + JsonNumber(QuantileLocked(0.50));
  out += ",\"p95\":" + JsonNumber(QuantileLocked(0.95));
  out += ",\"p99\":" + JsonNumber(QuantileLocked(0.99));
  out += "}";
  return out;
}

void Histogram::RenderPrometheus(const std::string& name,
                                 std::string* out) const {
  std::vector<int64_t> buckets;
  int64_t count;
  double sum;
  {
    MutexLock lock(&mutex_);
    buckets = bucket_counts_;
    count = count_;
    sum = sum_;
  }
  *out += "# TYPE " + name + " histogram\n";
  int64_t cumulative = 0;
  for (size_t b = 0; b < upper_bounds_.size(); ++b) {
    cumulative += buckets[b];
    *out += name + "_bucket{le=\"" + JsonNumber(upper_bounds_[b]) + "\"} " +
            std::to_string(cumulative) + "\n";
  }
  *out += name + "_bucket{le=\"+Inf\"} " + std::to_string(count) + "\n";
  *out += name + "_sum " + JsonNumber(sum) + "\n";
  *out += name + "_count " + std::to_string(count) + "\n";
}

std::string PrometheusName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(0, "_");
  return out;
}

void SplitPrometheusLabels(const std::string& name, std::string* family,
                           std::string* labels) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos) {
    *family = name;
    labels->clear();
    return;
  }
  *family = name.substr(0, brace);
  *labels = name.substr(brace);
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(&mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(&mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::string MetricsRegistry::ToJson() const {
  const int64_t unix_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  MutexLock lock(&mutex_);
  std::string out = "{\"unix_ms\":" + std::to_string(unix_ms);
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ',';
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + std::to_string(counter->Value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + JsonNumber(gauge->Value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) out += ',';
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + histogram->ToJson();
  }
  out += "}}";
  return out;
}

void MetricsRegistry::WriteJsonLine(std::ostream& out) const {
  out << ToJson() << '\n';
}

std::string MetricsRegistry::ToPrometheusText(const std::string& prefix) const {
  MutexLock lock(&mutex_);
  std::string out;
  // Labeled series of one family sort adjacently (the registry map is
  // ordered), so emitting # TYPE only when the family changes yields one
  // TYPE line per family as the exposition format requires.
  std::string last_family;
  for (const auto& [name, counter] : counters_) {
    std::string family, labels;
    SplitPrometheusLabels(name, &family, &labels);
    const std::string full = prefix + PrometheusName(family) + "_total";
    if (full != last_family) {
      out += "# TYPE " + full + " counter\n";
      last_family = full;
    }
    out += full + labels + " " + std::to_string(counter->Value()) + "\n";
  }
  last_family.clear();
  for (const auto& [name, gauge] : gauges_) {
    std::string family, labels;
    SplitPrometheusLabels(name, &family, &labels);
    const std::string full = prefix + PrometheusName(family);
    if (full != last_family) {
      out += "# TYPE " + full + " gauge\n";
      last_family = full;
    }
    out += full + labels + " " + JsonNumber(gauge->Value()) + "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    histogram->RenderPrometheus(prefix + PrometheusName(name), &out);
  }
  return out;
}

}  // namespace focus::serve
