// Sporadic DAG task systems: model validation, release generation,
// schedulability tests, and the federated guarantee as an executable
// property (test passes => simulation meets every deadline).
#include <gtest/gtest.h>

#include <memory>

#include "baselines/federated.h"
#include "baselines/list_scheduler.h"
#include "dag/generators.h"
#include "rt/schedulability.h"
#include "rt/task.h"
#include "sim/event_engine.h"

namespace dagsched {
namespace {

std::shared_ptr<const Dag> share(Dag dag) {
  return std::make_shared<const Dag>(std::move(dag));
}

SporadicTask make_task(Dag dag, Time period, Time deadline) {
  SporadicTask task;
  task.dag = share(std::move(dag));
  task.period = period;
  task.relative_deadline = deadline;
  task.profit = 1.0;
  task.validate();  // surfaces invalid parameters as the tests expect
  return task;
}

TEST(SporadicTaskTest, ValidationRules) {
  EXPECT_NO_THROW(make_task(make_parallel_block(8, 1.0), 10.0, 8.0));
  // D > T (unconstrained) rejected.
  EXPECT_THROW(make_task(make_parallel_block(8, 1.0), 10.0, 12.0),
               std::invalid_argument);
  // Span exceeds deadline.
  EXPECT_THROW(make_task(make_chain(10, 1.0), 12.0, 8.0),
               std::invalid_argument);
  EXPECT_THROW(make_task(make_parallel_block(8, 1.0), 0.0, 0.0),
               std::invalid_argument);
}

TEST(SporadicTaskTest, UtilizationMath) {
  TaskSet tasks;
  tasks.add(make_task(make_parallel_block(10, 1.0), 5.0, 5.0));  // u = 2
  tasks.add(make_task(make_chain(3, 1.0), 6.0, 6.0));            // u = 0.5
  EXPECT_DOUBLE_EQ(tasks.total_utilization(), 2.5);
}

TEST(ReleaseJobs, PeriodicSpacingAndDeadlines) {
  TaskSet tasks;
  tasks.add(make_task(make_parallel_block(4, 1.0), 10.0, 7.0));
  Rng rng(5);
  const JobSet jobs = release_jobs(tasks, 100.0, rng, 0.0);
  ASSERT_GE(jobs.size(), 9u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(jobs[i].relative_deadline(), 7.0);
    if (i > 0) {
      EXPECT_NEAR(jobs[i].release() - jobs[i - 1].release(), 10.0, 1e-9);
    }
  }
}

TEST(ReleaseJobs, SporadicGapsAtLeastPeriod) {
  TaskSet tasks;
  tasks.add(make_task(make_parallel_block(4, 1.0), 10.0, 7.0));
  Rng rng(6);
  const JobSet jobs = release_jobs(tasks, 200.0, rng, 0.5);
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    const double gap = jobs[i].release() - jobs[i - 1].release();
    EXPECT_GE(gap, 10.0 - 1e-9);
    EXPECT_LE(gap, 15.0 + 1e-9);
  }
}

TEST(Federated, ClusterMathAndCapacity) {
  TaskSet tasks;
  // W=16, L=1, D=4: ceil(15/3) = 5 processors.
  tasks.add(make_task(make_parallel_block(16, 1.0), 5.0, 4.0));
  // Chain: W=L=3, D=4: 1 processor.
  tasks.add(make_task(make_chain(3, 1.0), 5.0, 4.0));
  const FederatedResult on8 = federated_schedulable(tasks, 8);
  EXPECT_TRUE(on8.schedulable);
  ASSERT_EQ(on8.clusters.size(), 2u);
  EXPECT_EQ(on8.clusters[0], 5u);
  EXPECT_EQ(on8.clusters[1], 1u);
  EXPECT_FALSE(federated_schedulable(tasks, 5).schedulable);
}

TEST(Gedf, CapacityBoundTest) {
  TaskSet tasks;
  tasks.add(make_task(make_parallel_block(10, 1.0), 10.0, 10.0));  // u=1, L=1
  // m=4, bound 2.618: need total u <= 1.527 and L <= D/2.618.
  EXPECT_TRUE(gedf_capacity_schedulable(tasks, 4));
  tasks.add(make_task(make_parallel_block(10, 1.0), 10.0, 10.0));
  EXPECT_FALSE(gedf_capacity_schedulable(tasks, 4));  // u=2 > 1.527
  EXPECT_TRUE(gedf_capacity_schedulable(tasks, 8));
  // Span too close to deadline fails the bound even at low utilization.
  TaskSet spanny;
  spanny.add(make_task(make_chain(6, 1.0), 100.0, 10.0));  // L=6 > 10/2.618
  EXPECT_FALSE(gedf_capacity_schedulable(spanny, 8));
}

TEST(PaperAdmission, SnapshotConditions) {
  const Params params = Params::from_epsilon(0.5);
  TaskSet roomy;
  // D exactly at the Theorem-2 slack: greedy = 15/8 + 1 = 2.875 -> 4.3125.
  roomy.add(make_task(make_parallel_block(16, 1.0), 10.0, 4.3125 + 0.01));
  const PaperAdmissionResult ok = paper_admission_snapshot(roomy, 8, params);
  EXPECT_TRUE(ok.slack_ok);
  EXPECT_TRUE(ok.windows_ok);
  EXPECT_TRUE(ok.admissible);

  TaskSet tight;
  tight.add(make_task(make_parallel_block(16, 1.0), 10.0, 2.9));
  EXPECT_FALSE(paper_admission_snapshot(tight, 8, params).slack_ok);
}

// The guarantee behind federated_schedulable, end to end: if the test
// passes, simulating the released jobs under the federated baseline meets
// every deadline.
class FederatedGuarantee : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FederatedGuarantee, NoMissesWhenTestPasses) {
  Rng rng(GetParam());
  const ProcCount m = 16;
  // Rejection-sample a schedulable task set.
  TaskSet tasks;
  for (int attempt = 0; attempt < 60; ++attempt) {
    TaskGenConfig config;
    config.num_tasks = 5;
    config.total_utilization = rng.uniform(1.0, 4.0);
    TaskSet candidate = generate_task_set(rng, config);
    if (federated_schedulable(candidate, m).schedulable) {
      tasks = std::move(candidate);
      break;
    }
  }
  if (tasks.empty()) GTEST_SKIP() << "no schedulable set found";

  Rng release_rng = rng.split(1);
  const JobSet jobs = release_jobs(tasks, 150.0, release_rng, 0.3);
  FederatedScheduler scheduler;
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = m;
  const SimResult result = simulate(jobs, scheduler, *selector, options);
  EXPECT_EQ(result.jobs_completed, jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_LE(result.outcomes[i].completion_time,
              jobs[i].absolute_deadline() + 1e-6)
        << "job " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FederatedGuarantee,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Same spirit for GEDF: capacity-bound pass => EDF simulation meets all
// deadlines (the proven guarantee of Li et al.).
class GedfGuarantee : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GedfGuarantee, NoMissesWhenBoundHolds) {
  Rng rng(GetParam() ^ 0xBEEF);
  const ProcCount m = 16;
  TaskSet tasks;
  for (int attempt = 0; attempt < 60; ++attempt) {
    TaskGenConfig config;
    config.num_tasks = 6;
    config.total_utilization = rng.uniform(1.0, 5.5);
    TaskSet candidate = generate_task_set(rng, config);
    if (gedf_capacity_schedulable(candidate, m)) {
      tasks = std::move(candidate);
      break;
    }
  }
  if (tasks.empty()) GTEST_SKIP() << "no schedulable set found";

  Rng release_rng = rng.split(2);
  const JobSet jobs = release_jobs(tasks, 150.0, release_rng, 0.2);
  ListScheduler scheduler({ListPolicy::kEdf, false});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = m;
  const SimResult result = simulate(jobs, scheduler, *selector, options);
  EXPECT_EQ(result.jobs_completed, jobs.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GedfGuarantee,
                         ::testing::Values(11, 12, 13, 14, 15));

TEST(Dbf, HandComputedSteps) {
  TaskSet tasks;
  // W=8, D=4, T=10.
  tasks.add(make_task(make_parallel_block(8, 1.0), 10.0, 4.0));
  EXPECT_DOUBLE_EQ(demand_bound(tasks, 3.9), 0.0);
  EXPECT_DOUBLE_EQ(demand_bound(tasks, 4.0), 8.0);
  EXPECT_DOUBLE_EQ(demand_bound(tasks, 13.9), 8.0);
  EXPECT_DOUBLE_EQ(demand_bound(tasks, 14.0), 16.0);  // second release at 10
}

TEST(Dbf, FeasibilityNecessaryCondition) {
  TaskSet tasks;
  // dbf(4) = 8 > 1*4: infeasible on one processor... but a parallel block
  // CAN use more processors; on m=2, dbf(4) = 8 <= 8.
  tasks.add(make_task(make_parallel_block(8, 1.0), 10.0, 4.0));
  EXPECT_FALSE(dbf_feasible(tasks, 1, 50.0));
  EXPECT_TRUE(dbf_feasible(tasks, 2, 50.0));
}

TEST(Dbf, SufficientTestsNeverAcceptDbfInfeasible) {
  // Consistency: federated/GEDF acceptance implies the necessary dbf
  // condition holds (otherwise one of the tests would be unsound).
  Rng rng(4242);
  for (int trial = 0; trial < 30; ++trial) {
    TaskGenConfig config;
    config.num_tasks = 6;
    config.total_utilization = rng.uniform(1.0, 12.0);
    const TaskSet tasks = generate_task_set(rng, config);
    const ProcCount m = 16;
    const bool fed = federated_schedulable(tasks, m).schedulable;
    const bool gedf = gedf_capacity_schedulable(tasks, m);
    if (fed || gedf) {
      EXPECT_TRUE(dbf_feasible(tasks, m, 400.0))
          << "trial " << trial << " fed=" << fed << " gedf=" << gedf;
    }
  }
}

TEST(TaskGen, HitsUtilizationApproximately) {
  Rng rng(99);
  TaskGenConfig config;
  config.num_tasks = 12;
  config.total_utilization = 6.0;
  const TaskSet tasks = generate_task_set(rng, config);
  ASSERT_EQ(tasks.size(), 12u);
  // The parallelism cap may shave some utilization; never exceed target.
  EXPECT_LE(tasks.total_utilization(), 6.0 + 1e-9);
  EXPECT_GT(tasks.total_utilization(), 2.0);
  for (const SporadicTask& task : tasks.tasks()) {
    EXPECT_NO_THROW(task.validate());
  }
}

}  // namespace
}  // namespace dagsched
