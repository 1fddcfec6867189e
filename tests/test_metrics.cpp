// ScheduleMetrics and the utilization profile.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/list_scheduler.h"
#include "dag/generators.h"
#include "sim/event_engine.h"
#include "sim/metrics.h"

namespace dagsched {
namespace {

std::shared_ptr<const Dag> share(Dag dag) {
  return std::make_shared<const Dag>(std::move(dag));
}

TEST(MetricsTest, FlowAndLatenessFromSimpleRun) {
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_single_node(2.0)), 1.0, 5.0, 1.0));
  jobs.add(Job::with_deadline(share(make_single_node(3.0)), 0.0, 20.0, 1.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kFcfs, false});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 1;
  const SimResult result = simulate(jobs, scheduler, *selector, options);
  // FCFS: job 1 (release 0) runs [0,3), job 0 runs [3,5).
  const ScheduleMetrics metrics = compute_metrics(result, jobs, 1);
  EXPECT_EQ(metrics.completed, 2u);
  EXPECT_EQ(metrics.missed, 0u);
  EXPECT_DOUBLE_EQ(metrics.profit_fraction, 1.0);
  // Flow times: job1 = 3, job0 = 5 - 1 = 4.
  EXPECT_DOUBLE_EQ(metrics.flow_time.quantile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(metrics.flow_time.quantile(1.0), 4.0);
  // Lateness: job1 = 3 - 20 = -17, job0 = 5 - 6 = -1.
  EXPECT_DOUBLE_EQ(metrics.lateness.quantile(0.0), -17.0);
  EXPECT_DOUBLE_EQ(metrics.lateness.quantile(1.0), -1.0);
  // Stretch: sequential jobs on one machine: flow / W.
  EXPECT_DOUBLE_EQ(metrics.stretch.quantile(0.0), 1.0);   // job 1: 3/3
  EXPECT_DOUBLE_EQ(metrics.stretch.quantile(1.0), 2.0);   // job 0: 4/2
}

TEST(MetricsTest, MissedCountsIncompleteDeadlineJobs) {
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_chain(10, 1.0)), 0.0, 2.0, 1.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kEdf, false});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 1;
  const SimResult result = simulate(jobs, scheduler, *selector, options);
  const ScheduleMetrics metrics = compute_metrics(result, jobs, 1);
  EXPECT_EQ(metrics.completed, 0u);
  EXPECT_EQ(metrics.missed, 1u);
  EXPECT_DOUBLE_EQ(metrics.profit_fraction, 0.0);
}

TEST(UtilizationProfile, FullyBusyThenIdle) {
  // One node of work 4 on 1 processor, horizon 8, 4 buckets: busy busy
  // idle idle.
  Trace trace;
  trace.add(0.0, 4.0, 0, 0, 0);
  const std::vector<double> profile = utilization_profile(trace, 1, 8.0, 4);
  ASSERT_EQ(profile.size(), 4u);
  EXPECT_DOUBLE_EQ(profile[0], 1.0);
  EXPECT_DOUBLE_EQ(profile[1], 1.0);
  EXPECT_DOUBLE_EQ(profile[2], 0.0);
  EXPECT_DOUBLE_EQ(profile[3], 0.0);
}

TEST(UtilizationProfile, PartialOverlapAndMultiProc) {
  Trace trace;
  trace.add(1.0, 3.0, 0, 0, 0);  // spans buckets [0,2) and [2,4)
  trace.add(0.0, 4.0, 1, 0, 1);
  const std::vector<double> profile = utilization_profile(trace, 2, 4.0, 2);
  ASSERT_EQ(profile.size(), 2u);
  // Bucket 0: proc0 busy 1 of 2, proc1 busy 2 of 2 -> 3/4.
  EXPECT_DOUBLE_EQ(profile[0], 0.75);
  EXPECT_DOUBLE_EQ(profile[1], 0.75);
}

TEST(UtilizationProfile, ClampsBeyondHorizon) {
  Trace trace;
  trace.add(0.0, 100.0, 0, 0, 0);
  const std::vector<double> profile = utilization_profile(trace, 1, 10.0, 5);
  for (const double value : profile) EXPECT_DOUBLE_EQ(value, 1.0);
}

TEST(UtilizationProfile, NonPositiveHorizonYieldsEmptyProfile) {
  // A run that executed nothing has end_time 0; callers hand that straight
  // in as the horizon, so it must degrade to an empty profile, not abort.
  Trace trace;
  EXPECT_TRUE(utilization_profile(trace, 4, 0.0, 60).empty());
  EXPECT_TRUE(utilization_profile(trace, 4, -1.0, 60).empty());
  trace.add(0.0, 1.0, 0, 0, 0);
  EXPECT_TRUE(utilization_profile(trace, 4, 0.0, 60).empty());
}

}  // namespace
}  // namespace dagsched
