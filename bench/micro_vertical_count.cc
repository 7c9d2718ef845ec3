// GCR-extension support counting: horizontal transaction scan vs the
// vertical TID-bitmap loop (AND+popcount over a prebuilt
// data::VerticalIndex), the hot path behind LitsDeviation's extension
// step. Default is a scaled-down size; FOCUS_FULL=1 runs 1M transactions
// x 64 itemsets. Emits one JSON line (appended to $FOCUS_BENCH_JSON when
// set):
//   {"bench":"micro_vertical_count","transactions":N,"itemsets":64,
//    "horizontal_ms_per_pass":…,"index_build_ms":…,"index_mib":…,
//    "vertical_ms_per_pass":…,"speedup_vertical":…,
//    "passes_to_amortize_build":…,"checked":true}

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "common/timer.h"
#include "data/vertical_index.h"
#include "datagen/quest_gen.h"
#include "itemsets/itemset.h"
#include "itemsets/support_counter.h"

namespace focus {
namespace {

// 64 probe itemsets over the 16 most frequent items: 16 singles, 32 pairs,
// 16 triples — the size mix a GCR of two mined models typically carries.
std::vector<lits::Itemset> ProbeItemsets(const data::TransactionDb& db) {
  std::vector<int64_t> frequency(db.num_items(), 0);
  for (int64_t t = 0; t < db.num_transactions(); ++t) {
    for (int32_t item : db.Transaction(t)) ++frequency[item];
  }
  std::vector<int32_t> order(db.num_items());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    return frequency[a] != frequency[b] ? frequency[a] > frequency[b] : a < b;
  });
  const int top = std::min<int>(16, db.num_items());
  std::vector<lits::Itemset> itemsets;
  itemsets.reserve(64);
  for (int i = 0; i < top; ++i) {
    itemsets.push_back(lits::Itemset({order[i]}));
  }
  for (int i = 0; static_cast<int>(itemsets.size()) < 48; ++i) {
    const int a = i % top;
    const int b = (i * 7 + 1) % top;
    if (a == b) continue;
    itemsets.push_back(lits::Itemset({order[a], order[b]}));
  }
  for (int i = 0; static_cast<int>(itemsets.size()) < 64; ++i) {
    const int a = i % top;
    const int b = (i + 3) % top;
    const int c = (i * 5 + 2) % top;
    if (a == b || a == c || b == c) continue;
    itemsets.push_back(lits::Itemset({order[a], order[b], order[c]}));
  }
  return itemsets;
}

int Run() {
  const int64_t n = bench::ScaledCount(20000, 1000000);
  bench::PrintHeader(
      "micro_vertical_count",
      "GCR support counting: horizontal scan vs vertical TID bitmaps",
      "one scan per dataset (§3.3.1); vertical amortizes it across passes");

  const datagen::QuestParams params = bench::PaperQuestParams(
      n, /*num_patterns=*/500, /*pattern_length=*/4, /*seed=*/42);
  const data::TransactionDb db = datagen::GenerateQuest(params);
  const std::vector<lits::Itemset> itemsets = ProbeItemsets(db);
  const lits::SupportCounter counter(itemsets, db.num_items());
  std::printf("dataset: %lld transactions, %d items, %zu probe itemsets\n",
              static_cast<long long>(db.num_transactions()), db.num_items(),
              itemsets.size());

  const int horizontal_passes = 3;
  common::Timer timer;
  std::vector<int64_t> horizontal;
  for (int i = 0; i < horizontal_passes; ++i) {
    horizontal = counter.CountAbsolute(db);
  }
  const double horizontal_ms = timer.Millis() / horizontal_passes;

  timer.Restart();
  const data::VerticalIndex index(db);
  const double build_ms = timer.Millis();

  const int vertical_passes = 10;
  timer.Restart();
  std::vector<int64_t> vertical;
  for (int i = 0; i < vertical_passes; ++i) {
    vertical = counter.CountAbsolute(index);
  }
  const double vertical_ms = timer.Millis() / vertical_passes;

  FOCUS_CHECK(vertical == horizontal);  // the bit-identical contract

  const double speedup = horizontal_ms / vertical_ms;
  // Number of counting passes after which build + vertical probes beat
  // repeated horizontal scans.
  const double amortize =
      horizontal_ms > vertical_ms ? build_ms / (horizontal_ms - vertical_ms)
                                  : -1.0;
  char line[768];
  std::snprintf(
      line, sizeof(line),
      "{\"bench\":\"micro_vertical_count\",\"transactions\":%lld,"
      "\"itemsets\":%zu,\"horizontal_ms_per_pass\":%.3f,"
      "\"index_build_ms\":%.3f,\"index_mib\":%.1f,"
      "\"vertical_ms_per_pass\":%.3f,"
      "\"speedup_vertical\":%.2f,\"passes_to_amortize_build\":%.2f,"
      "\"checked\":true}",
      static_cast<long long>(db.num_transactions()), itemsets.size(),
      horizontal_ms, build_ms,
      static_cast<double>(index.MemoryBytes()) / (1024.0 * 1024.0),
      vertical_ms, speedup, amortize);
  bench::EmitBenchJson(line);
  return 0;
}

}  // namespace
}  // namespace focus

int main() { return focus::Run(); }
