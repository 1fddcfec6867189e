// The Section-5 profit scheduler: deadline search, slot assignment,
// Lemmas 14-15 as run-time invariants, and end-to-end profit on the
// SlotEngine.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/profit_scheduler.h"
#include "dag/generators.h"
#include "job/job.h"
#include "sim/slot_engine.h"
#include "util/rng.h"
#include "workload/scenarios.h"

namespace dagsched {
namespace {

std::shared_ptr<const Dag> share(Dag dag) {
  return std::make_shared<const Dag>(std::move(dag));
}

Time plateau_for(const Dag& dag, ProcCount m, double eps) {
  return (1.0 + eps) *
         ((dag.total_work() - dag.span()) / static_cast<double>(m) +
          dag.span());
}

SimResult run_slotted(const JobSet& jobs, ProfitScheduler& scheduler,
                      ProcCount m, double speed = 1.0) {
  auto sel = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = m;
  options.speed = speed;
  SlotEngine engine(jobs, scheduler, *sel, options);
  return engine.run();
}

TEST(ProfitScheduler, SingleJobScheduledWithMinimalSlots) {
  const ProcCount m = 16;
  const double eps = 0.5;
  Dag dag = make_parallel_block(30, 1.0);
  const Time plateau = std::ceil(plateau_for(dag, m, eps)) + 2.0;
  JobSet jobs;
  jobs.add(Job(share(std::move(dag)), 0.0,
               ProfitFn::plateau_linear(5.0, plateau, plateau * 4.0)));
  jobs.finalize();

  ProfitScheduler scheduler({.params = Params::from_epsilon(eps)});
  const SimResult result = run_slotted(jobs, scheduler, m);

  ASSERT_TRUE(result.outcomes[0].completed);
  const JobAllocation* alloc = scheduler.allocation_of(0);
  ASSERT_NE(alloc, nullptr);
  ASSERT_GE(alloc->n, 1u);
  // Lemma 14: x (1+2delta) <= x*.
  EXPECT_LE(alloc->x * (1.0 + 2.0 * scheduler.params().delta),
            plateau + 1e-9);
  // Minimal valid deadline on an empty machine: |I| == ceil((1+delta) x).
  const auto needed = static_cast<std::size_t>(
      std::ceil((1.0 + scheduler.params().delta) * alloc->x - 1e-9));
  EXPECT_EQ(scheduler.assigned_slots(0).size(), needed);
  EXPECT_EQ(scheduler.scheduled_count(), 1u);
  // Completed within the chosen deadline.
  EXPECT_LE(result.outcomes[0].completion_time,
            scheduler.chosen_deadline(0) + 1e-9);
}

TEST(ProfitScheduler, CompletionWithinPlateauEarnsPeak) {
  const ProcCount m = 16;
  const double eps = 0.5;
  Dag dag = make_parallel_block(24, 1.0);
  // Generous plateau: the minimal valid deadline fits inside it.
  const Time plateau = std::ceil(plateau_for(dag, m, eps)) + 6.0;
  JobSet jobs;
  jobs.add(Job(share(std::move(dag)), 0.0,
               ProfitFn::plateau_linear(3.0, plateau, plateau * 5.0)));
  jobs.finalize();
  ProfitScheduler scheduler({.params = Params::from_epsilon(eps)});
  const SimResult result = run_slotted(jobs, scheduler, m);
  ASSERT_TRUE(result.outcomes[0].completed);
  EXPECT_DOUBLE_EQ(result.total_profit, 3.0);
  // Chosen deadline stayed within the plateau (minimality).
  EXPECT_LE(scheduler.chosen_deadline(0), plateau + 1e-9);
}

TEST(ProfitScheduler, InfeasiblePlateauLeavesJobUnscheduled) {
  const ProcCount m = 4;
  Dag dag = make_chain(10, 1.0);  // W = L = 10
  JobSet jobs;
  // Plateau below (1+eps)L: the Theorem-3 assumption is violated.
  jobs.add(Job(share(std::move(dag)), 0.0,
               ProfitFn::plateau_linear(1.0, 10.5, 40.0)));
  jobs.finalize();
  ProfitScheduler scheduler({.params = Params::from_epsilon(0.5)});
  const SimResult result = run_slotted(jobs, scheduler, m);
  EXPECT_FALSE(result.outcomes[0].completed);
  EXPECT_EQ(scheduler.scheduled_count(), 0u);
}

TEST(ProfitScheduler, SlotWindowInvariantLemma15) {
  // Several simultaneous jobs; after all arrivals every occupied slot's
  // density windows stay within b*m.
  const ProcCount m = 16;
  const double eps = 0.5;
  JobSet jobs;
  Rng rng(5);
  for (int i = 0; i < 6; ++i) {
    Dag dag = make_parallel_block(
        static_cast<std::size_t>(rng.uniform_int(10, 40)), 1.0);
    const Time plateau = std::ceil(plateau_for(dag, m, eps)) + 4.0;
    jobs.add(Job(share(std::move(dag)), 0.0,
                 ProfitFn::plateau_linear(rng.uniform(1.0, 5.0), plateau,
                                          plateau * 6.0)));
  }
  jobs.finalize();
  ProfitScheduler scheduler({.params = Params::from_epsilon(eps)});
  const SimResult result = run_slotted(jobs, scheduler, m);
  (void)result;
  // Inspect all slots any job was assigned to.
  const double cap = scheduler.params().b * static_cast<double>(m);
  for (JobId j = 0; j < jobs.size(); ++j) {
    if (scheduler.allocation_of(j) == nullptr) continue;
    for (const std::uint64_t slot : scheduler.assigned_slots(j)) {
      EXPECT_LE(scheduler.slot_window_load(slot), cap + 1e-9)
          << "slot " << slot;
    }
  }
}

TEST(ProfitScheduler, LaterDeadlineWhenSlotsCongested) {
  // Fill the machine with one job, then submit an identical one: its
  // chosen deadline must be at least as late (it needs slots further out).
  const ProcCount m = 16;
  const double eps = 0.5;
  Dag d1 = make_parallel_block(30, 1.0);
  Dag d2 = make_parallel_block(30, 1.0);
  const Time plateau = std::ceil(plateau_for(d1, m, eps)) + 2.0;
  JobSet jobs;
  jobs.add(Job(share(std::move(d1)), 0.0,
               ProfitFn::plateau_exponential(5.0, plateau, 0.05)));
  jobs.add(Job(share(std::move(d2)), 0.0,
               ProfitFn::plateau_exponential(5.0, plateau, 0.05)));
  jobs.finalize();
  ProfitScheduler scheduler({.params = Params::from_epsilon(eps)});
  const SimResult result = run_slotted(jobs, scheduler, m);
  ASSERT_EQ(scheduler.scheduled_count(), 2u);
  EXPECT_GE(scheduler.chosen_deadline(1), scheduler.chosen_deadline(0));
  // Both eventually complete (exponential support never runs out).
  EXPECT_EQ(result.jobs_completed, 2u);
  EXPECT_GT(result.total_profit, 0.0);
}

TEST(ProfitScheduler, CompletedJobsEarnAtLeastDeadlineProfit) {
  Rng rng(99);
  WorkloadConfig config = scenario_profit(0.5, 0.6, 8,
                                          ProfitPolicy::Shape::kPlateauLinear);
  config.horizon = 120.0;
  const JobSet jobs = generate_workload(rng, config);
  ASSERT_GT(jobs.size(), 3u);
  ProfitScheduler scheduler({.params = Params::from_epsilon(0.5)});
  const SimResult result = run_slotted(jobs, scheduler, 8);
  for (JobId j = 0; j < jobs.size(); ++j) {
    if (!result.outcomes[j].completed) continue;
    if (scheduler.chosen_deadline(j) == kTimeInfinity) continue;
    const Profit at_deadline =
        jobs[j].profit().at(scheduler.chosen_deadline(j));
    EXPECT_GE(result.outcomes[j].profit, at_deadline - 1e-9)
        << "job " << j;
  }
  EXPECT_GT(result.total_profit, 0.0);
}

TEST(ProfitScheduler, SlotReleaseAblationBothWork) {
  Rng rng(123);
  WorkloadConfig config = scenario_profit(0.5, 0.8, 8,
                                          ProfitPolicy::Shape::kPlateauExp);
  config.horizon = 80.0;
  const JobSet jobs = generate_workload(rng, config);
  for (const bool release : {true, false}) {
    ProfitScheduler scheduler(
        {.params = Params::from_epsilon(0.5),
         .release_slots_on_completion = release});
    const SimResult result = run_slotted(jobs, scheduler, 8);
    EXPECT_GE(result.total_profit, 0.0);
    EXPECT_LE(result.total_profit, jobs.total_peak_profit() + 1e-9);
  }
}

}  // namespace
}  // namespace dagsched
