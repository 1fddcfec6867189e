// Coverage for the remaining utility paths: TextTable CSV export, piecewise
// profits through the Section-5 scheduler, and trace validation under speed
// augmentation.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>

#include "baselines/list_scheduler.h"
#include "core/profit_scheduler.h"
#include "dag/generators.h"
#include "sim/event_engine.h"
#include "sim/slot_engine.h"
#include "util/table.h"

namespace dagsched {
namespace {

TEST(TextTableCsv, WritesFile) {
  const std::string path = ::testing::TempDir() + "/dagsched_table.csv";
  TextTable table({"a", "b"});
  table.add_row({"1", "x,y"});
  table.write_csv(path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,\"x,y\"");
  std::remove(path.c_str());
}

TEST(ProfitSchedulerPiecewise, SchedulesAgainstStaircase) {
  // Piecewise profit: full value for 8 slots, half for 16, scrap for 30.
  const ProcCount m = 8;
  auto dag = std::make_shared<const Dag>(make_parallel_block(12, 1.0));
  JobSet jobs;
  jobs.add(Job(dag, 0.0,
               ProfitFn::piecewise({{8.0, 10.0}, {16.0, 5.0}, {30.0, 1.0}})));
  jobs.finalize();
  ProfitScheduler scheduler({.params = Params::from_epsilon(0.5)});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = m;
  SlotEngine engine(jobs, scheduler, *selector, options);
  const SimResult result = engine.run();
  ASSERT_TRUE(result.outcomes[0].completed);
  // Alone on the machine, the minimal valid deadline fits the top level.
  EXPECT_DOUBLE_EQ(result.total_profit, 10.0);
  EXPECT_LE(scheduler.chosen_deadline(0), 8.0 + 1e-9);
}

TEST(ProfitSchedulerPiecewise, FallsToLowerLevelUnderCongestion) {
  // Saturate early slots with identical competitors; later arrivals must
  // accept a later deadline and thus a lower staircase level.
  const ProcCount m = 8;
  auto dag = std::make_shared<const Dag>(make_parallel_block(24, 1.0));
  JobSet jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.add(Job(dag, 0.0,
                 ProfitFn::piecewise({{8.0, 10.0}, {40.0, 4.0}})));
  }
  jobs.finalize();
  ProfitScheduler scheduler({.params = Params::from_epsilon(0.5)});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = m;
  SlotEngine engine(jobs, scheduler, *selector, options);
  const SimResult result = engine.run();
  // All are eventually scheduled; at least one had to take the late level.
  EXPECT_EQ(scheduler.scheduled_count(), 4u);
  Time latest = 0.0;
  for (JobId j = 0; j < jobs.size(); ++j) {
    latest = std::max(latest, scheduler.chosen_deadline(j));
  }
  EXPECT_GT(latest, 8.0);
  EXPECT_GT(result.total_profit, 0.0);
}

TEST(TraceSpeed, ValidatesUnderAugmentation) {
  JobSet jobs;
  jobs.add(Job::with_deadline(
      std::make_shared<const Dag>(make_fig2_dag(3, 12, 1.0)), 0.0, 50.0,
      1.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kEdf, false});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 4;
  options.speed = 2.5;
  options.record_trace = true;
  const SimResult result = simulate(jobs, scheduler, *selector, options);
  ASSERT_TRUE(result.outcomes[0].completed);
  EXPECT_EQ(result.trace.validate(jobs, 4, 2.5), "");
  // Wrong speed must be detected (durations no longer account for work).
  EXPECT_NE(result.trace.validate(jobs, 4, 1.0), "");
}

TEST(EngineGuards, MaxDecisionsFailsStructured) {
  // A scheduler that thrashes between two jobs at every node completion
  // still terminates; the guard only fires on true livelock.  Overflowing
  // a tiny budget must not kill the process: the engine reports a failed
  // SimOutcome with the partial results intact.
  JobSet jobs;
  jobs.add(Job::with_deadline(
      std::make_shared<const Dag>(make_parallel_block(64, 1.0)), 0.0, 1e6,
      1.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kEdf, false});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 2;
  options.max_decisions = 3;
  EventEngine engine(jobs, scheduler, *selector, options);
  const SimResult result = engine.run();
  EXPECT_TRUE(result.failed());
  EXPECT_EQ(result.failure, SimFailureKind::kDecisionBudget);
  EXPECT_NE(result.failure_message.find("decision budget"),
            std::string::npos);
  EXPECT_GE(result.decisions, 3u);
}

TEST(SchedulerNames, AreDescriptive) {
  EXPECT_EQ(ListScheduler({ListPolicy::kEdf, false}).name(), "edf");
  ProfitScheduler profit({.params = Params::from_epsilon(0.25)});
  EXPECT_NE(profit.name().find("paper-S-profit"), std::string::npos);
}

}  // namespace
}  // namespace dagsched
