// The recompute-on-admission extension: a job that waited in P and is no
// longer delta-fresh under its arrival-time allocation gets a re-derived
// (larger n, smaller x) allocation and completes, where the paper's static
// allocation lets it expire.
#include <gtest/gtest.h>

#include <memory>

#include "core/deadline_scheduler.h"
#include "dag/generators.h"
#include "job/job.h"
#include "sim/kernel/engine_factory.h"
#include "workload/scenarios.h"

namespace dagsched {
namespace {

std::shared_ptr<const Dag> share(Dag dag) {
  return std::make_shared<const Dag>(std::move(dag));
}

/// Two 30-work parallel blocks arrive together on m=16.  The first (tight
/// deadline ~4.22) is admitted with n=13; the second (deadline 7) lands in
/// the same density window (13 + 7 > b*m) and waits in P.  When the first
/// completes at t=3, the waiter's arrival-time allocation (n=7, x~5.14)
/// needs 1.125*x ~ 5.8 of remaining window but only has 4 -- not
/// delta-fresh, so static S drops it even though the job is perfectly
/// completable: the recomputed allocation (n=14, x~3.07) fits the window.
JobSet contention_pair(ProcCount m, double eps) {
  Dag d1 = make_parallel_block(30, 1.0);
  Dag d2 = make_parallel_block(30, 1.0);
  const Time tight =
      (1.0 + eps) *
      ((d1.total_work() - d1.span()) / static_cast<double>(m) + d1.span());
  JobSet jobs;
  jobs.add(Job::with_deadline(share(std::move(d1)), 0.0, tight, 1.0));
  jobs.add(Job::with_deadline(share(std::move(d2)), 0.0, 7.0, 1.0));
  jobs.finalize();
  return jobs;
}

SimResult run(const JobSet& jobs, bool recompute, ProcCount m) {
  DeadlineScheduler scheduler(
      {.params = Params::from_epsilon(0.5),
       .recompute_on_admission = recompute});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = m;
  return run_simulation(EngineKind::kEvent, jobs, scheduler, *selector,
                        options);
}

TEST(Recompute, RescuesStaleWaiter) {
  const JobSet jobs = contention_pair(16, 0.5);
  const SimResult without = run(jobs, false, 16);
  const SimResult with = run(jobs, true, 16);
  // Static S completes exactly one (the waiter expires un-fresh).
  EXPECT_EQ(without.jobs_completed, 1u);
  // Recompute re-sizes the waiter to the remaining window and finishes it.
  EXPECT_EQ(with.jobs_completed, 2u);
  EXPECT_GT(with.total_profit, without.total_profit);
}

TEST(Recompute, RescuedJobStillMeetsDeadline) {
  const JobSet jobs = contention_pair(16, 0.5);
  const SimResult result = run(jobs, true, 16);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(result.outcomes[i].completed);
    EXPECT_LE(result.outcomes[i].completion_time,
              jobs[i].absolute_deadline() + 1e-6);
  }
}

TEST(Recompute, NeverWorseOnRandomWorkloads) {
  // Not a theorem -- but on these benign workloads the extension should
  // never lose more than noise relative to static S.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    WorkloadConfig config = scenario_thm2(0.5, 1.2, 8);
    config.horizon = 120.0;
    const JobSet jobs = generate_workload(rng, config);
    const SimResult without = run(jobs, false, 8);
    const SimResult with = run(jobs, true, 8);
    EXPECT_GE(with.total_profit, 0.9 * without.total_profit) << seed;
  }
}

TEST(Recompute, NameReflectsOption) {
  DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5),
                               .recompute_on_admission = true});
  EXPECT_NE(scheduler.name().find("recompute"), std::string::npos);
}

}  // namespace
}  // namespace dagsched
