#ifndef FOCUS_SERVE_API_UTIL_H_
#define FOCUS_SERVE_API_UTIL_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/functions.h"
#include "serve/fg_choice.h"
#include "serve/monitor_service.h"

namespace focus::serve {

// Helpers of focus_served's HTTP front end (src/shard/sharded_api) and its
// scatter-gather router. Keeping one copy is not just hygiene: the shard
// law checker asserts bit-identical answers against a bare MonitorService,
// which requires the oracle and the router to fold aggregates through the
// same code.

// The longest stream name either ingest source (HTTP or --spool) takes.
inline constexpr size_t kMaxStreamName = 128;

// Whether `name` can name a stream: [A-Za-z0-9._-]{1,kMaxStreamName}, so
// every stream is addressable in a URL path segment.
bool ValidStreamName(std::string_view name);

// 16-digit lowercase hex of a content hash, and its inverse.
std::string HashHex(uint64_t hash);
bool ParseHashHex(const std::string& text, uint64_t* out);

// FgChoice::FromParams spelled as the function and names of the pair:
// false on an unrecognized name. perfbench/replay.cc parses its f and g
// arguments through this.
bool ParseDeviationFunction(const std::map<std::string, std::string>& params,
                            core::DeviationFunction* fn, std::string* f_name,
                            std::string* g_name);

// "f":"<f name>","g":"<g name>" (no surrounding braces).
std::string FgJson(FgChoice fg);

// The shared JSON fragment for one stream's status (no surrounding
// braces).
std::string StatusJson(const StreamStatus& status);

// One stream's contribution to a cross-stream aggregate.
struct SummaryEntry {
  std::string stream;
  bool has_deviation = false;
  double deviation = 0.0;
};

struct SummaryResult {
  int64_t num_streams = 0;  // entries seen
  int64_t num_values = 0;   // entries contributing a deviation
  bool has_aggregate = false;
  double aggregate = 0.0;
};

// Canonical cross-stream aggregate: sorts `entries` by stream name in
// place and folds the deviations in that order with core::AggregateValues.
// Both the sharded scatter-gather merge and the single-node law oracle
// call exactly this function — sorting before the
// fold is what makes the distributed g_sum bit-identical (floating-point
// addition is order-sensitive; max would merge in any order, sum will
// not).
SummaryResult AggregateSummary(std::vector<SummaryEntry>* entries,
                               core::AggregateKind g);

// Renders the /v1/deviation/summary response body from an aggregate and
// its (already sorted) entries.
std::string SummaryJson(FgChoice fg,
                        const std::vector<SummaryEntry>& sorted_entries,
                        const SummaryResult& result);

}  // namespace focus::serve

#endif  // FOCUS_SERVE_API_UTIL_H_
