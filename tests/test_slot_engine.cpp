// SlotEngine: quantized machine model, slot semantics, idle skipping.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/list_scheduler.h"
#include "dag/generators.h"
#include "job/job.h"
#include "sim/slot_engine.h"

namespace dagsched {
namespace {

std::shared_ptr<const Dag> share(Dag dag) {
  return std::make_shared<const Dag>(std::move(dag));
}

SimResult run_slotted(const JobSet& jobs, SchedulerBase& scheduler,
                      ProcCount m, double speed = 1.0) {
  auto sel = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = m;
  options.speed = speed;
  options.record_trace = true;
  SlotEngine engine(jobs, scheduler, *sel, options);
  return engine.run();
}

TEST(SlotEngine, UnitChainTakesOneSlotPerNode) {
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_chain(4, 1.0)), 0.0, 10.0, 1.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kEdf, false});
  const SimResult result = run_slotted(jobs, scheduler, 2);
  ASSERT_TRUE(result.outcomes[0].completed);
  EXPECT_DOUBLE_EQ(result.outcomes[0].completion_time, 4.0);
}

TEST(SlotEngine, SuccessorsWaitForNextSlot) {
  // Two nodes of 0.5 in a chain: the event engine would finish at 1.0, but
  // the slot model keeps the successor for the next slot: completion 1.5.
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_chain(2, 0.5)), 0.0, 10.0, 1.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kEdf, false});
  const SimResult result = run_slotted(jobs, scheduler, 1);
  ASSERT_TRUE(result.outcomes[0].completed);
  EXPECT_DOUBLE_EQ(result.outcomes[0].completion_time, 1.5);
}

TEST(SlotEngine, ParallelBlockWaves) {
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_parallel_block(6, 1.0)), 0.0, 10.0,
                              1.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kEdf, false});
  const SimResult result = run_slotted(jobs, scheduler, 4);
  ASSERT_TRUE(result.outcomes[0].completed);
  EXPECT_DOUBLE_EQ(result.outcomes[0].completion_time, 2.0);
  EXPECT_DOUBLE_EQ(result.busy_proc_time, 6.0);
}

TEST(SlotEngine, SpeedConsumesMoreWorkPerSlot) {
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_chain(2, 2.0)), 0.0, 10.0, 1.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kEdf, false});
  const SimResult result = run_slotted(jobs, scheduler, 1, 2.0);
  ASSERT_TRUE(result.outcomes[0].completed);
  // Each node (work 2) fits one slot at speed 2.
  EXPECT_DOUBLE_EQ(result.outcomes[0].completion_time, 2.0);
}

TEST(SlotEngine, LateArrivalSkipsIdleSlots) {
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_single_node(1.0)), 100.0, 10.0, 1.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kEdf, false});
  const SimResult result = run_slotted(jobs, scheduler, 1);
  ASSERT_TRUE(result.outcomes[0].completed);
  EXPECT_DOUBLE_EQ(result.outcomes[0].completion_time, 101.0);
  // Decisions should be tiny (idle skip), not ~100.
  EXPECT_LT(result.decisions, 10u);
}

TEST(SlotEngine, ExpiredJobsTerminateRun) {
  // A job that can never run (deadline in the past relative to its work on
  // one processor) must not spin the engine to the horizon.
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_chain(10, 1.0)), 0.0, 2.0, 1.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kEdf, false});
  const SimResult result = run_slotted(jobs, scheduler, 1);
  EXPECT_FALSE(result.outcomes[0].completed);
  EXPECT_LT(result.decisions, 50u);
}

TEST(SlotEngine, TraceIsValidSchedule) {
  Rng rng(55);
  JobSet jobs;
  for (int i = 0; i < 8; ++i) {
    RandomDagParams params;
    params.nodes = 12;
    params.edge_prob = 0.15;
    params.work = WorkDist::constant(1.0);
    Dag dag = make_random_dag(rng, params);
    const double deadline =
        3.0 * ((dag.total_work() - dag.span()) / 4.0 + dag.span()) + 4.0;
    jobs.add(Job::with_deadline(share(std::move(dag)),
                                static_cast<double>(i), deadline, 1.0));
  }
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kEdf, false});
  const SimResult result = run_slotted(jobs, scheduler, 4);
  EXPECT_EQ(result.trace.validate(jobs, 4, 1.0), "");
  EXPECT_GT(result.jobs_completed, 0u);
}

}  // namespace
}  // namespace dagsched
