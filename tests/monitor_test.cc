#include <gtest/gtest.h>

#include <vector>

#include "common/thread_pool.h"
#include "core/monitor.h"
#include "core/significance.h"
#include "data/vertical_index.h"
#include "datagen/quest_gen.h"
#include "itemsets/apriori.h"

namespace focus::core {
namespace {

data::TransactionDb MakeSnapshot(uint64_t seed, bool drifted) {
  datagen::QuestParams params;
  params.num_transactions = 1200;
  params.num_items = 100;
  params.num_patterns = 40;
  params.avg_pattern_length = drifted ? 6 : 4;
  params.avg_transaction_length = 8;
  params.pattern_seed = drifted ? 43 : 42;
  params.seed = seed;
  return datagen::GenerateQuest(params);
}

MonitorOptions TestOptions() {
  MonitorOptions options;
  options.apriori.min_support = 0.02;
  options.calibration_replicates = 5;
  options.significance.num_replicates = 9;
  return options;
}

TEST(LitsChangeMonitorTest, ScreensOutSameProcessSnapshots) {
  const LitsChangeMonitor monitor(MakeSnapshot(1, false), TestOptions());
  EXPECT_GT(monitor.alert_threshold(), 0.0);
  int screened = 0;
  for (uint64_t seed = 2; seed <= 5; ++seed) {
    const MonitorReport report = monitor.Inspect(MakeSnapshot(seed, false));
    if (report.screened_out) ++screened;
    EXPECT_FALSE(report.alert && report.screened_out);
  }
  // Most quiet snapshots pass stage 1 without the expensive stage 2.
  EXPECT_GE(screened, 3);
}

TEST(LitsChangeMonitorTest, AlertsOnDrift) {
  const LitsChangeMonitor monitor(MakeSnapshot(1, false), TestOptions());
  const MonitorReport report = monitor.Inspect(MakeSnapshot(9, true));
  EXPECT_FALSE(report.screened_out);
  EXPECT_TRUE(report.alert);
  EXPECT_GT(report.deviation, 0.0);
  EXPECT_GE(report.significance_percent, 95.0);
  // Theorem 4.2: bound dominates the exact deviation.
  EXPECT_GE(report.upper_bound, report.deviation - 1e-9);
}

TEST(LitsChangeMonitorTest, RebaseAdoptsNewRegime) {
  LitsChangeMonitor monitor(MakeSnapshot(1, false), TestOptions());
  // Drifted snapshot fires...
  EXPECT_TRUE(monitor.Inspect(MakeSnapshot(9, true)).alert);
  // ...after rebasing onto the new regime, its siblings are quiet.
  monitor.Rebase(MakeSnapshot(9, true));
  const MonitorReport report = monitor.Inspect(MakeSnapshot(10, true));
  EXPECT_FALSE(report.alert);
  // And the old regime now alerts.
  EXPECT_TRUE(monitor.Inspect(MakeSnapshot(2, false)).alert);
}

TEST(LitsChangeMonitorTest, SelfInspectionIsQuiet) {
  const data::TransactionDb reference = MakeSnapshot(1, false);
  const LitsChangeMonitor monitor(reference, TestOptions());
  const MonitorReport report = monitor.Inspect(reference);
  EXPECT_TRUE(report.screened_out);
  EXPECT_DOUBLE_EQ(report.upper_bound, 0.0);
}

// Stage 2 reuses the deviation the monitor computed by scanning and runs
// only the null distribution, across a pool when given one, from
// inside one of the pool's tasks as the serving layer calls it. Both
// numbers must equal the standalone significance test's, bit for bit.
TEST(LitsChangeMonitorTest, PooledStageTwoMatchesStandaloneSignificance) {
  const data::TransactionDb reference = MakeSnapshot(1, false);
  MonitorOptions options = TestOptions();
  options.alert_factor = 1e-9;  // every snapshot reaches stage 2
  const LitsChangeMonitor monitor(reference, options);
  common::ThreadPool pool(3);
  for (const auto& [seed, drifted] :
       std::vector<std::pair<uint64_t, bool>>{{2, false}, {3, false},
                                              {9, true}}) {
    const data::TransactionDb snapshot = MakeSnapshot(seed, drifted);
    const data::VerticalIndex index(snapshot);
    const lits::LitsModel model =
        lits::Apriori(snapshot, options.apriori, &index);
    const SignificanceResult expected = LitsDeviationSignificance(
        reference, snapshot, options.apriori, options.fn,
        options.significance);
    const MonitorReport report =
        pool.Submit([&]() {
              return monitor.InspectWithModel(snapshot, model, &pool);
            })
            .get();
    ASSERT_FALSE(report.screened_out) << "seed " << seed;
    EXPECT_EQ(report.deviation, expected.deviation) << "seed " << seed;
    EXPECT_EQ(report.significance_percent, expected.significance_percent)
        << "seed " << seed;
    EXPECT_EQ(report.alert, expected.significance_percent >= 95.0);
  }
}

}  // namespace
}  // namespace focus::core
