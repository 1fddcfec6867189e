// Experiment harness: run_workload, OPT bracketing, trial aggregation.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "baselines/list_scheduler.h"
#include "core/deadline_scheduler.h"
#include "dag/generators.h"
#include "exp/runner.h"
#include "workload/scenarios.h"

namespace dagsched {
namespace {

TEST(Runner, RunWorkloadProducesConsistentMetrics) {
  Rng rng(1);
  const JobSet jobs = generate_workload(rng, scenario_thm2(0.5, 0.7, 8));
  ASSERT_FALSE(jobs.empty());
  DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5)});
  RunConfig config;
  config.m = 8;
  const RunMetrics metrics = run_workload(jobs, scheduler, config);
  EXPECT_EQ(metrics.num_jobs, jobs.size());
  EXPECT_LE(metrics.completed, metrics.num_jobs);
  EXPECT_GE(metrics.fraction, 0.0);
  EXPECT_LE(metrics.fraction, 1.0 + 1e-9);
  EXPECT_GT(metrics.decisions, 0u);
}

TEST(Runner, OptBracketOrdered) {
  Rng rng(2);
  const JobSet jobs = generate_workload(rng, scenario_thm2(0.5, 0.9, 8));
  const OptBracket bracket = estimate_opt(jobs, 8);
  EXPECT_GE(bracket.upper, bracket.lower - 1e-6);
  EXPECT_GT(bracket.lower, 0.0);
  EXPECT_FALSE(bracket.lower_scheduler.empty());
  // Ratios behave.
  EXPECT_GE(bracket.ratio_upper(bracket.lower), 1.0 - 1e-9);
  EXPECT_DOUBLE_EQ(bracket.ratio_lower(bracket.lower), 1.0);
}

TEST(Runner, AlgorithmNeverExceedsUpperBound) {
  Rng rng(3);
  const JobSet jobs = generate_workload(rng, scenario_shootout(1.2, 8, 0.2, 1.0));
  const OptBracket bracket = estimate_opt(jobs, 8);
  DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5)});
  RunConfig config;
  config.m = 8;
  const RunMetrics metrics = run_workload(jobs, scheduler, config);
  EXPECT_LE(metrics.profit, bracket.upper + 1e-6);
}

TEST(Runner, OptBracketAndClairvoyantLlfWitnessArePinned) {
  // Clairvoyant LLF reads each job's remaining span, which comes from the
  // DAG until the kernel first runs the job and builds its unfolding; the
  // two must agree bit for bit.  These are the values computed when every
  // arrival built its unfolding.
  Rng rng(5);
  const JobSet jobs =
      generate_workload(rng, scenario_shootout(1.6, 8, 0.3, 1.2));
  ASSERT_EQ(jobs.size(), 238u);
  const OptBracket bracket = estimate_opt(jobs, 8);
  EXPECT_EQ(bracket.lower, 0x1.598ca784a326cp+11);
  EXPECT_EQ(bracket.lower_scheduler, "offline-greedy-plan");
  EXPECT_EQ(bracket.upper, 0x1.5d4c07ddae799p+11);

  ListScheduler llf({.policy = ListPolicy::kLlf, .clairvoyant_laxity = true});
  RunConfig run;
  run.m = 8;
  run.selector = SelectorKind::kCriticalPath;
  const RunMetrics metrics = run_workload(jobs, llf, run);
  EXPECT_EQ(metrics.profit, 0x1.21da96375f47bp+11);
  EXPECT_EQ(metrics.completed, 77u);
  EXPECT_EQ(metrics.decisions, 3824u);
}

TEST(Runner, OfflineGreedyLowerBoundWithinBracket) {
  Rng rng(17);
  const JobSet jobs = generate_workload(rng, scenario_shootout(2.0, 8, 0.3, 1.0));
  ASSERT_FALSE(jobs.empty());
  const Profit planned = offline_greedy_lower_bound(jobs, 8);
  const OptBracket bracket = estimate_opt(jobs, 8);
  // The planner is folded into the bracket's lower bound...
  EXPECT_GE(bracket.lower, planned - 1e-9);
  // ...and stays below the LP upper bound.
  EXPECT_LE(planned, bracket.upper + 1e-6);
  EXPECT_GT(planned, 0.0);
}

TEST(Runner, OfflineGreedySelectsDenseJobsUnderOverload) {
  // One machine, window [0, 2]: profit-3 job of work 2 vs two profit-2
  // jobs of work 1 each.  Classic density ranks the small ones first; the
  // planner must accept exactly those (total 4), as the exact OPT would.
  JobSet jobs;
  auto node = [](Work w) {
    return std::make_shared<const Dag>(make_single_node(w));
  };
  jobs.add(Job::with_deadline(node(2.0), 0.0, 2.0, 3.0));
  jobs.add(Job::with_deadline(node(1.0), 0.0, 2.0, 2.0));
  jobs.add(Job::with_deadline(node(1.0), 0.0, 2.0, 2.0));
  jobs.finalize();
  EXPECT_DOUBLE_EQ(offline_greedy_lower_bound(jobs, 1), 4.0);
}

TEST(Runner, TrialsAggregateDeterministically) {
  TrialConfig config;
  config.workload = scenario_thm2(0.5, 0.6, 8);
  config.workload.horizon = 120.0;
  config.run.m = 8;
  config.trials = 4;
  config.base_seed = 77;
  const SchedulerFactory factory = [] {
    return std::make_unique<DeadlineScheduler>(
        DeadlineSchedulerOptions{.params = Params::from_epsilon(0.5)});
  };
  const TrialStats a = run_trials(config, factory);
  const TrialStats b = run_trials(config, factory);
  EXPECT_EQ(a.profit.count(), 4u);
  EXPECT_DOUBLE_EQ(a.profit.mean(), b.profit.mean());
  EXPECT_DOUBLE_EQ(a.fraction.mean(), b.fraction.mean());
}

TEST(Runner, WithOptPopulatesRatios) {
  TrialConfig config;
  config.workload = scenario_thm2(0.5, 0.6, 4);
  config.workload.horizon = 60.0;
  config.run.m = 4;
  config.trials = 2;
  config.with_opt = true;
  const SchedulerFactory factory = [] {
    return std::make_unique<DeadlineScheduler>(
        DeadlineSchedulerOptions{.params = Params::from_epsilon(0.5)});
  };
  const TrialStats stats = run_trials(config, factory);
  EXPECT_EQ(stats.ratio_ub.count(), 2u);
  EXPECT_GE(stats.ratio_ub.min(), 1.0 - 1e-6);
}

TEST(Runner, SlotEngineRouting) {
  Rng rng(9);
  WorkloadConfig wconfig =
      scenario_profit(0.5, 0.5, 8, ProfitPolicy::Shape::kPlateauLinear);
  wconfig.horizon = 60.0;
  const JobSet jobs = generate_workload(rng, wconfig);
  ListScheduler scheduler({ListPolicy::kEdf, false});
  RunConfig config;
  config.m = 8;
  config.engine = EngineKind::kSlot;
  const RunMetrics metrics = run_workload(jobs, scheduler, config);
  EXPECT_GE(metrics.profit, 0.0);
}

TEST(Runner, BothEnginesProduceEqualMetricsOnIntegralWorkload) {
  // One canned config through the kernel-backed factory: on an integral
  // workload (unit node works, integer releases and deadlines, speed 1)
  // the two stepping drivers must agree on every aggregate the runner
  // reports (they execute the same shared kernel).
  JobSet jobs;
  Rng rng(11);
  for (std::size_t i = 0; i < 10; ++i) {
    const auto width = static_cast<std::size_t>(rng.uniform_int(1, 4));
    auto dag = std::make_shared<const Dag>(make_parallel_block(width, 1.0));
    const auto release = static_cast<Time>(rng.uniform_int(0, 20));
    const auto slack = static_cast<Time>(rng.uniform_int(4, 30));
    jobs.add(Job::with_deadline(dag, release, release + slack,
                                std::floor(rng.uniform(1.0, 5.0))));
  }
  jobs.finalize();
  ASSERT_FALSE(jobs.empty());

  RunConfig config;
  config.m = 4;
  RunMetrics by_engine[2];
  const EngineKind kinds[2] = {EngineKind::kEvent, EngineKind::kSlot};
  for (int i = 0; i < 2; ++i) {
    ListScheduler scheduler({ListPolicy::kEdf, false});
    config.engine = kinds[i];
    by_engine[i] = run_workload(jobs, scheduler, config);
  }
  EXPECT_NEAR(by_engine[0].profit, by_engine[1].profit, 1e-6);
  EXPECT_NEAR(by_engine[0].fraction, by_engine[1].fraction, 1e-9);
  EXPECT_EQ(by_engine[0].completed, by_engine[1].completed);
  EXPECT_EQ(by_engine[0].num_jobs, by_engine[1].num_jobs);
  EXPECT_NEAR(by_engine[0].busy_proc_time, by_engine[1].busy_proc_time, 1e-6);
  EXPECT_EQ(by_engine[0].failure, SimFailureKind::kNone);
  EXPECT_EQ(by_engine[1].failure, SimFailureKind::kNone);
}

}  // namespace
}  // namespace dagsched
