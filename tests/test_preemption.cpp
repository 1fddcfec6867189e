// Preemption counters in both engines, and the EQUI non-clairvoyant
// baseline.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/equi.h"
#include "baselines/list_scheduler.h"
#include "dag/generators.h"
#include "sim/event_engine.h"
#include "sim/slot_engine.h"
#include "workload/scenarios.h"

namespace dagsched {
namespace {

std::shared_ptr<const Dag> share(Dag dag) {
  return std::make_shared<const Dag>(std::move(dag));
}

TEST(Preemption, NoneForUncontestedJob) {
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_parallel_block(8, 1.0)), 0.0, 10.0,
                              1.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kEdf, false});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 4;
  const SimResult result = simulate(jobs, scheduler, *selector, options);
  EXPECT_EQ(result.node_preemptions, 0u);
  EXPECT_EQ(result.job_preemptions, 0u);
}

TEST(Preemption, EdfPreemptsForTighterDeadline) {
  // Long job running alone, then a tight job arrives and takes the single
  // processor: exactly one node and one job preemption.
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_single_node(10.0)), 0.0, 30.0, 1.0));
  jobs.add(Job::with_deadline(share(make_single_node(2.0)), 3.0, 4.0, 1.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kEdf, false});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 1;
  const SimResult result = simulate(jobs, scheduler, *selector, options);
  EXPECT_EQ(result.jobs_completed, 2u);
  EXPECT_EQ(result.node_preemptions, 1u);
  EXPECT_EQ(result.job_preemptions, 1u);
}

TEST(Preemption, CompletionIsNotPreemption) {
  // Two sequential jobs on one processor, run to completion in turn.
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_single_node(2.0)), 0.0, 10.0, 1.0));
  jobs.add(Job::with_deadline(share(make_single_node(2.0)), 0.0, 10.0, 1.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kFcfs, false});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 1;
  const SimResult result = simulate(jobs, scheduler, *selector, options);
  EXPECT_EQ(result.jobs_completed, 2u);
  EXPECT_EQ(result.node_preemptions, 0u);
  EXPECT_EQ(result.job_preemptions, 0u);
}

TEST(Preemption, SlotEngineCountsGaps) {
  // EDF on the slot engine with the same two-job preemption scenario.
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_single_node(10.0)), 0.0, 30.0, 1.0));
  jobs.add(Job::with_deadline(share(make_single_node(2.0)), 3.0, 4.0, 1.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kEdf, false});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 1;
  SlotEngine engine(jobs, scheduler, *selector, options);
  const SimResult result = engine.run();
  EXPECT_EQ(result.jobs_completed, 2u);
  EXPECT_EQ(result.node_preemptions, 1u);
  EXPECT_EQ(result.job_preemptions, 1u);
}

TEST(Equi, SplitsProcessorsEvenly) {
  JobSet jobs;
  for (int i = 0; i < 3; ++i) {
    jobs.add(Job::with_deadline(share(make_parallel_block(12, 1.0)), 0.0,
                                50.0, 1.0));
  }
  jobs.finalize();
  EquiScheduler scheduler;
  bool checked = false;
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 6;
  options.observer = [&checked](const EngineContext& ctx,
                                const Assignment& assignment) {
    if (ctx.now() == 0.0 && !checked) {
      checked = true;
      ASSERT_EQ(assignment.allocs.size(), 3u);
      for (const JobAlloc& alloc : assignment.allocs) {
        EXPECT_EQ(alloc.procs, 2u);  // 6 / 3
      }
    }
  };
  EventEngine engine(jobs, scheduler, *selector, options);
  const SimResult result = engine.run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(result.jobs_completed, 3u);
}

TEST(Equi, LargestRemainderDistributesLeftovers) {
  JobSet jobs;
  for (int i = 0; i < 3; ++i) {
    jobs.add(Job::with_deadline(share(make_parallel_block(8, 1.0)), 0.0,
                                50.0, 1.0));
  }
  jobs.finalize();
  EquiScheduler scheduler;
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 4;  // 4/3: grants 2,1,1
  bool checked = false;
  options.observer = [&checked](const EngineContext& ctx,
                                const Assignment& assignment) {
    if (ctx.now() == 0.0 && !checked) {
      checked = true;
      ProcCount total = 0;
      for (const JobAlloc& alloc : assignment.allocs) total += alloc.procs;
      EXPECT_EQ(total, 4u);
      EXPECT_EQ(assignment.allocs.size(), 3u);
    }
  };
  EventEngine engine(jobs, scheduler, *selector, options);
  engine.run();
  EXPECT_TRUE(checked);
}

TEST(Equi, ProfitWeightingBiasesShares) {
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_parallel_block(20, 1.0)), 0.0, 50.0,
                              9.0));
  jobs.add(Job::with_deadline(share(make_parallel_block(20, 1.0)), 0.0, 50.0,
                              1.0));
  jobs.finalize();
  EquiScheduler scheduler({.weight_by_profit = true});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 10;
  bool checked = false;
  options.observer = [&checked](const EngineContext& ctx,
                                const Assignment& assignment) {
    if (ctx.now() == 0.0 && !checked) {
      checked = true;
      ASSERT_EQ(assignment.allocs.size(), 2u);
      EXPECT_EQ(assignment.allocs[0].procs, 9u);
      EXPECT_EQ(assignment.allocs[1].procs, 1u);
    }
  };
  EventEngine engine(jobs, scheduler, *selector, options);
  engine.run();
  EXPECT_TRUE(checked);
}

TEST(Equi, NeverPeeksAtDagStructure) {
  // EQUI must run fine as a declared non-clairvoyant scheduler on any
  // workload (any DAG peek would DS_CHECK-abort inside EngineContext).
  Rng rng(8);
  const JobSet jobs = generate_workload(rng, scenario_shootout(1.5, 8, 0.3, 1.0));
  EquiScheduler scheduler;
  EXPECT_FALSE(scheduler.clairvoyant());
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 8;
  const SimResult result = simulate(jobs, scheduler, *selector, options);
  EXPECT_GE(result.total_profit, 0.0);
}

}  // namespace
}  // namespace dagsched
