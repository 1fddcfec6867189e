// Scheduler S (Section 3): admission, queue dynamics, density priority,
// and the paper's structural invariants enforced at every decision point.
#include <gtest/gtest.h>

#include <memory>

#include "core/deadline_scheduler.h"
#include "dag/generators.h"
#include "job/job.h"
#include "sim/event_engine.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace dagsched {
namespace {

std::shared_ptr<const Dag> share(Dag dag) {
  return std::make_shared<const Dag>(std::move(dag));
}

/// Deadline with exactly (1+eps) slack on m processors.
Time slack_deadline(const Dag& dag, ProcCount m, double eps) {
  return (1.0 + eps) *
         ((dag.total_work() - dag.span()) / static_cast<double>(m) +
          dag.span());
}

SimResult run(const JobSet& jobs, DeadlineScheduler& scheduler, ProcCount m,
              double speed = 1.0,
              std::function<void(const EngineContext&, const Assignment&)>
                  observer = nullptr) {
  auto sel = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = m;
  options.speed = speed;
  options.observer = std::move(observer);
  return simulate(jobs, scheduler, *sel, options);
}

TEST(DeadlineScheduler, SingleGoodJobAdmittedAndCompleted) {
  const ProcCount m = 16;
  Dag dag = make_parallel_block(30, 1.0);
  const Time deadline = slack_deadline(dag, m, 0.5);
  JobSet jobs;
  jobs.add(Job::with_deadline(share(std::move(dag)), 0.0, deadline, 1.0));
  jobs.finalize();

  DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5)});
  const SimResult result = run(jobs, scheduler, m);
  ASSERT_TRUE(result.outcomes[0].completed);
  EXPECT_LE(result.outcomes[0].completion_time, deadline + 1e-9);
  EXPECT_DOUBLE_EQ(result.total_profit, 1.0);
  EXPECT_EQ(scheduler.started_count(), 1u);

  // The allocation matches the standalone formula.
  const JobAllocation* alloc = scheduler.allocation_of(0);
  ASSERT_NE(alloc, nullptr);
  const JobAllocation expected = compute_deadline_allocation(
      30.0, 1.0, deadline, 1.0, scheduler.params(), 1.0);
  EXPECT_EQ(alloc->n, expected.n);
  EXPECT_DOUBLE_EQ(alloc->x, expected.x);
}

TEST(DeadlineScheduler, CompletionRespectsGuaranteedBound) {
  // Observation 2 through the whole stack: the job finishes within x_i of
  // its start when nothing competes.
  const ProcCount m = 8;
  Dag dag = make_fig2_dag(4, 20, 1.0);  // chain then block
  const Time deadline = slack_deadline(dag, m, 1.0);
  JobSet jobs;
  jobs.add(Job::with_deadline(share(std::move(dag)), 0.0, deadline, 2.0));
  jobs.finalize();
  DeadlineScheduler scheduler({.params = Params::from_epsilon(1.0)});
  const SimResult result = run(jobs, scheduler, m);
  ASSERT_TRUE(result.outcomes[0].completed);
  const JobAllocation* alloc = scheduler.allocation_of(0);
  ASSERT_NE(alloc, nullptr);
  EXPECT_LE(result.outcomes[0].completion_time, alloc->x + 1e-9);
}

TEST(DeadlineScheduler, NotDeltaGoodJobWaitsInPAndExpires) {
  const ProcCount m = 16;
  Dag dag = make_parallel_block(30, 1.0);
  // Tight deadline below the delta-good threshold: D < (1+2delta) * anything
  // achievable.
  const Time deadline = 1.001 * std::max(dag.span(), dag.total_work() / m);
  JobSet jobs;
  jobs.add(Job::with_deadline(share(std::move(dag)), 0.0, deadline, 1.0));
  jobs.finalize();
  DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5)});
  const SimResult result = run(jobs, scheduler, m);
  EXPECT_FALSE(result.outcomes[0].completed);
  EXPECT_EQ(scheduler.started_count(), 0u);
  EXPECT_DOUBLE_EQ(result.total_profit, 0.0);
}

TEST(DeadlineScheduler, AdmissionRejectsSaturatedDensityWindow) {
  const ProcCount m = 16;
  const double eps = 0.5;
  Dag dag1 = make_parallel_block(30, 1.0);
  Dag dag2 = make_parallel_block(30, 1.0);
  const Time deadline = slack_deadline(dag1, m, eps);
  JobSet jobs;
  jobs.add(Job::with_deadline(share(std::move(dag1)), 0.0, deadline, 1.0));
  jobs.add(Job::with_deadline(share(std::move(dag2)), 0.0, deadline, 1.0));
  jobs.finalize();

  DeadlineScheduler scheduler({.params = Params::from_epsilon(eps)});
  bool checked = false;
  const SimResult result =
      run(jobs, scheduler, m, 1.0,
          [&](const EngineContext& ctx, const Assignment&) {
            if (ctx.now() == 0.0 && !checked) {
              checked = true;
              // Identical densities, n ~ 13 each: 2n > b*m, so exactly one
              // of the two is in Q.
              EXPECT_NE(scheduler.in_queue_q(0), scheduler.in_queue_q(1));
              EXPECT_NE(scheduler.in_queue_p(0), scheduler.in_queue_p(1));
            }
          });
  EXPECT_TRUE(checked);
  // The Q job completes; the P job is not fresh by then (deadline ~4.2,
  // needed freshness ~3.6 after completion ~3) and expires.
  EXPECT_EQ(result.jobs_completed, 1u);
}

TEST(DeadlineScheduler, DrainPAdmitsFreshJobAfterCompletion) {
  const ProcCount m = 16;
  const double eps = 0.5;
  Dag big = make_parallel_block(30, 1.0);
  Dag patient = make_parallel_block(30, 1.0);
  const Time d_big = slack_deadline(big, m, eps);
  JobSet jobs;
  jobs.add(Job::with_deadline(share(std::move(big)), 0.0, d_big, 1.0));
  // Same arrival, long deadline: initially rejected (its small n still lands
  // in the big job's density window), admitted after the big job completes.
  jobs.add(Job::with_deadline(share(std::move(patient)), 0.0, 30.0, 1.0));
  jobs.finalize();

  DeadlineScheduler scheduler({.params = Params::from_epsilon(eps)});
  bool initially_rejected = false;
  const SimResult result =
      run(jobs, scheduler, m, 1.0,
          [&](const EngineContext& ctx, const Assignment&) {
            if (ctx.now() == 0.0) {
              initially_rejected = scheduler.in_queue_p(1);
            }
          });
  EXPECT_TRUE(initially_rejected);
  EXPECT_EQ(result.jobs_completed, 2u);
  EXPECT_TRUE(result.outcomes[1].completed);
  EXPECT_EQ(scheduler.started_count(), 2u);
}

TEST(DeadlineScheduler, HigherDensityJobRunsFirst) {
  const ProcCount m = 4;
  const double eps = 0.5;
  Dag cheap = make_parallel_block(12, 1.0);
  Dag precious = make_parallel_block(12, 1.0);
  const Time deadline = slack_deadline(cheap, m, eps) * 3.0;  // roomy
  JobSet jobs;
  jobs.add(Job::with_deadline(share(std::move(cheap)), 0.0, deadline, 1.0));
  jobs.add(Job::with_deadline(share(std::move(precious)), 0.0, deadline, 10.0));
  jobs.finalize();

  DeadlineScheduler scheduler({.params = Params::from_epsilon(eps)});
  JobId first_running = kInvalidJob;
  run(jobs, scheduler, m, 1.0,
      [&](const EngineContext& ctx, const Assignment& assignment) {
        if (ctx.now() == 0.0 && first_running == kInvalidJob &&
            !assignment.allocs.empty()) {
          first_running = assignment.allocs.front().job;
        }
      });
  EXPECT_EQ(first_running, 1u);  // the 10x-profit job
}

TEST(DeadlineScheduler, CompletedJobsAlwaysMeetTheirDeadlines) {
  Rng rng(2024);
  WorkloadConfig config;
  config.m = 16;
  config.target_load = 1.2;  // overload: some jobs must be sacrificed
  config.horizon = 200.0;
  config.deadline.kind = DeadlinePolicy::Kind::kProportionalSlack;
  config.deadline.eps = 0.5;
  const JobSet jobs = generate_workload(rng, config);
  ASSERT_GT(jobs.size(), 10u);

  DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5)});
  const SimResult result = run(jobs, scheduler, config.m);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!result.outcomes[i].completed) continue;
    EXPECT_LE(result.outcomes[i].completion_time,
              jobs[i].absolute_deadline() + 1e-6);
    EXPECT_DOUBLE_EQ(result.outcomes[i].profit, jobs[i].peak_profit());
  }
}

// Observation 3 / Lemmas 1-3 as run-time invariants over random workloads.
class SchedulerInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerInvariants, HoldAtEveryDecision) {
  Rng rng(GetParam());
  WorkloadConfig config;
  config.m = 16;
  config.target_load = 1.0;
  config.horizon = 150.0;
  config.deadline.kind = DeadlinePolicy::Kind::kProportionalSlack;
  config.deadline.eps = 0.6;
  const JobSet jobs = generate_workload(rng, config);

  DeadlineScheduler scheduler({.params = Params::from_epsilon(0.6)});
  const Params& p = scheduler.params();
  const double cap = p.b * 16.0;
  std::size_t checks = 0;
  run(jobs, scheduler, config.m, 1.0,
      [&](const EngineContext& ctx, const Assignment& assignment) {
        ++checks;
        // Observation 3: every density window within b*m.
        EXPECT_LE(scheduler.queue_index().max_window_load(p.c), cap + 1e-9);
        // Granted allocations use each job's fixed n_i.
        for (const JobAlloc& alloc : assignment.allocs) {
          const JobAllocation* ja = scheduler.allocation_of(alloc.job);
          ASSERT_NE(ja, nullptr);
          EXPECT_EQ(alloc.procs, ja->n);
          // Lemma 3.
          const JobView view = ctx.view(alloc.job);
          EXPECT_LE(ja->x * static_cast<double>(ja->n),
                    p.a() * view.work() + 1e-6);
          // Lemma 2 (delta-goodness of everything S runs).
          EXPECT_LE(ja->x * (1.0 + 2.0 * p.delta),
                    view.relative_deadline() + 1e-9);
        }
      });
  EXPECT_GT(checks, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerInvariants,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(DeadlineScheduler, AblationsRunCleanly) {
  Rng rng(7);
  WorkloadConfig config;
  config.m = 8;
  config.target_load = 0.8;
  config.horizon = 100.0;
  config.deadline.eps = 0.5;
  const JobSet jobs = generate_workload(rng, config);

  for (const DeadlineSchedulerOptions& options :
       {DeadlineSchedulerOptions{.enforce_admission = false},
        DeadlineSchedulerOptions{.work_conserving = true},
        DeadlineSchedulerOptions{.admit_on_deadline = true},
        DeadlineSchedulerOptions{
            .density_def = DeadlineSchedulerOptions::DensityDef::kClassic},
        DeadlineSchedulerOptions{
            .density_def = DeadlineSchedulerOptions::DensityDef::kSquashed}}) {
    DeadlineScheduler scheduler(options);
    const SimResult result = run(jobs, scheduler, config.m);
    EXPECT_GE(result.total_profit, 0.0) << scheduler.name();
    EXPECT_LE(result.total_profit, jobs.total_peak_profit() + 1e-9)
        << scheduler.name();
  }
}

TEST(DeadlineScheduler, PlateauProfitJobsUsePlateauReduction) {
  const ProcCount m = 8;
  Dag dag = make_parallel_block(16, 1.0);
  const Time plateau = slack_deadline(dag, m, 0.5);
  JobSet jobs;
  jobs.add(Job(share(std::move(dag)), 0.0,
               ProfitFn::plateau_linear(4.0, plateau, plateau * 3.0)));
  jobs.finalize();
  DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5)});
  const SimResult result = run(jobs, scheduler, m);
  ASSERT_TRUE(result.outcomes[0].completed);
  // Completed within the plateau => full peak earned.
  EXPECT_DOUBLE_EQ(result.outcomes[0].profit, 4.0);
}

TEST(DeadlineScheduler, ResetAllowsReuse) {
  const ProcCount m = 8;
  Dag dag = make_parallel_block(16, 1.0);
  const Time deadline = slack_deadline(dag, m, 0.5);
  JobSet jobs;
  jobs.add(Job::with_deadline(share(std::move(dag)), 0.0, deadline, 1.0));
  jobs.finalize();
  DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5)});
  const SimResult first = run(jobs, scheduler, m);
  const SimResult second = run(jobs, scheduler, m);
  EXPECT_DOUBLE_EQ(first.total_profit, second.total_profit);
  EXPECT_EQ(scheduler.started_count(), 1u);  // reset cleared the first run
}

}  // namespace
}  // namespace dagsched
