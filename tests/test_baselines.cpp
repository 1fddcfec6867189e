// Baseline schedulers: ordering semantics and federated admission.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/federated.h"
#include "baselines/list_scheduler.h"
#include "dag/generators.h"
#include "job/job.h"
#include "sim/event_engine.h"

namespace dagsched {
namespace {

std::shared_ptr<const Dag> share(Dag dag) {
  return std::make_shared<const Dag>(std::move(dag));
}

SimResult run(const JobSet& jobs, SchedulerBase& scheduler, ProcCount m,
              std::function<void(const EngineContext&, const Assignment&)>
                  observer = nullptr) {
  auto sel = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = m;
  options.observer = std::move(observer);
  return simulate(jobs, scheduler, *sel, options);
}

TEST(ListSchedulerTest, EdfPrefersEarlierDeadline) {
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_single_node(2.0)), 0.0, 50.0, 1.0));
  jobs.add(Job::with_deadline(share(make_single_node(2.0)), 0.0, 5.0, 1.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kEdf, false});
  JobId first = kInvalidJob;
  run(jobs, scheduler, 1,
      [&first](const EngineContext& ctx, const Assignment& assignment) {
        if (ctx.now() == 0.0 && first == kInvalidJob &&
            !assignment.allocs.empty()) {
          first = assignment.allocs.front().job;
        }
      });
  EXPECT_EQ(first, 1u);  // the tighter deadline
}

TEST(ListSchedulerTest, HdfPrefersDenserJob) {
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_single_node(4.0)), 0.0, 50.0, 1.0));
  jobs.add(Job::with_deadline(share(make_single_node(2.0)), 0.0, 50.0, 4.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kHdf, false});
  JobId first = kInvalidJob;
  run(jobs, scheduler, 1,
      [&first](const EngineContext& ctx, const Assignment& assignment) {
        if (ctx.now() == 0.0 && first == kInvalidJob &&
            !assignment.allocs.empty()) {
          first = assignment.allocs.front().job;
        }
      });
  EXPECT_EQ(first, 1u);  // density 2 vs 0.25
}

TEST(ListSchedulerTest, FcfsPrefersEarlierArrival) {
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_single_node(3.0)), 0.0, 50.0, 1.0));
  jobs.add(Job::with_deadline(share(make_single_node(1.0)), 1.0, 50.0, 9.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kFcfs, false});
  const SimResult result = run(jobs, scheduler, 1);
  // Job 0 runs to completion first despite job 1's profit.
  EXPECT_DOUBLE_EQ(result.outcomes[0].completion_time, 3.0);
  EXPECT_DOUBLE_EQ(result.outcomes[1].completion_time, 4.0);
}

TEST(ListSchedulerTest, WorkConservingSplitsAcrossJobs) {
  // Two blocks of 4 ready nodes each on m=6: EDF gives 4 + 2.
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_parallel_block(4, 1.0)), 0.0, 5.0,
                              1.0));
  jobs.add(Job::with_deadline(share(make_parallel_block(4, 1.0)), 0.0, 6.0,
                              1.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kEdf, false});
  bool checked = false;
  run(jobs, scheduler, 6,
      [&checked](const EngineContext& ctx, const Assignment& assignment) {
        if (ctx.now() == 0.0 && !checked) {
          checked = true;
          ASSERT_EQ(assignment.allocs.size(), 2u);
          EXPECT_EQ(assignment.total_procs(), 6u);
          EXPECT_EQ(assignment.allocs[0].procs, 4u);
          EXPECT_EQ(assignment.allocs[1].procs, 2u);
        }
      });
  EXPECT_TRUE(checked);
}

TEST(ListSchedulerTest, DropsExpiredJobs) {
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_chain(10, 1.0)), 0.0, 2.0, 1.0));
  jobs.add(Job::with_deadline(share(make_single_node(1.0)), 5.0, 10.0, 1.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kEdf, false});
  const SimResult result = run(jobs, scheduler, 1);
  EXPECT_FALSE(result.outcomes[0].completed);
  EXPECT_TRUE(result.outcomes[1].completed);
  // Job 0 only ran until its deadline at t=2.
  EXPECT_LE(result.outcomes[0].executed, 2.0 + 1e-9);
}

TEST(ListSchedulerTest, ClairvoyantLaxityDeclaresItself) {
  ListScheduler plain({ListPolicy::kLlf, false});
  ListScheduler clairvoyant({ListPolicy::kLlf, true});
  EXPECT_FALSE(plain.clairvoyant());
  EXPECT_TRUE(clairvoyant.clairvoyant());
  EXPECT_NE(plain.name(), clairvoyant.name());
}

TEST(Federated, ComputesMinimalCluster) {
  // W=100, L=10, D=40: ceil(90/30) = 3 processors.
  JobSet jobs;
  Dag dag = make_fig2_dag(9, 91, 1.0);  // W=100, L=10
  ASSERT_DOUBLE_EQ(dag.total_work(), 100.0);
  ASSERT_DOUBLE_EQ(dag.span(), 10.0);
  jobs.add(Job::with_deadline(share(std::move(dag)), 0.0, 40.0, 1.0));
  jobs.finalize();
  FederatedScheduler scheduler;
  bool checked = false;
  run(jobs, scheduler, 8,
      [&checked](const EngineContext& ctx, const Assignment& assignment) {
        if (ctx.now() == 0.0 && !checked && !assignment.allocs.empty()) {
          checked = true;
          EXPECT_EQ(assignment.allocs[0].procs, 3u);
        }
      });
  EXPECT_TRUE(checked);
  EXPECT_EQ(scheduler.admitted_count(), 1u);
}

TEST(Federated, RejectsWhenMachineCommitted) {
  JobSet jobs;
  // Each job needs ceil(30/(5-1)) = 8 of 8 processors... use two jobs that
  // each need 5 of 8: second rejected.
  for (int i = 0; i < 2; ++i) {
    Dag dag = make_fig2_dag(1, 40, 1.0);  // W=41, L=2
    // cluster = ceil(39 / (D - 2)); D = 10 -> ceil(39/8) = 5.
    jobs.add(Job::with_deadline(share(std::move(dag)), 0.0, 10.0, 1.0));
  }
  jobs.finalize();
  FederatedScheduler scheduler;
  const SimResult result = run(jobs, scheduler, 8);
  EXPECT_EQ(scheduler.admitted_count(), 1u);
  EXPECT_TRUE(result.outcomes[0].completed);
  EXPECT_FALSE(result.outcomes[1].completed);
}

TEST(Federated, ClusterReleasedOnCompletion) {
  JobSet jobs;
  Dag d1 = make_parallel_block(8, 1.0);
  Dag d2 = make_parallel_block(8, 1.0);
  jobs.add(Job::with_deadline(share(std::move(d1)), 0.0, 3.0, 1.0));
  // Arrives after the first completes; cluster must be free again.
  jobs.add(Job::with_deadline(share(std::move(d2)), 4.0, 3.0, 1.0));
  jobs.finalize();
  FederatedScheduler scheduler;
  const SimResult result = run(jobs, scheduler, 8);
  EXPECT_EQ(scheduler.admitted_count(), 2u);
  EXPECT_EQ(result.jobs_completed, 2u);
}

TEST(Federated, InfeasibleDeadlineNeverAdmitted) {
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_chain(10, 1.0)), 0.0, 5.0, 1.0));
  jobs.finalize();
  FederatedScheduler scheduler;
  const SimResult result = run(jobs, scheduler, 8);
  EXPECT_EQ(scheduler.admitted_count(), 0u);
  EXPECT_FALSE(result.outcomes[0].completed);
}

}  // namespace
}  // namespace dagsched
