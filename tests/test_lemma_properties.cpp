// The paper's accounting lemmas as executable properties.
//
// Lemma 5 states ||C|| >= (eps - 1/((c-1)delta)) ||R||: the profit of jobs
// S completes is at least a constant fraction of the profit of jobs it
// *starts*.  With the canonical minimal c the constant is ~0, so we test at
// c = 8 * c_min where it is ~0.44 -- a real, falsifiable bound.
#include <gtest/gtest.h>

#include <memory>

#include "core/analysis.h"
#include "core/deadline_scheduler.h"
#include "sim/kernel/engine_factory.h"
#include "workload/scenarios.h"

namespace dagsched {
namespace {

class Lemma5 : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma5, CompletedProfitDominatesStartedFraction) {
  const double eps = 0.5;
  const double delta = eps / 4.0;
  const double c_min = 1.0 + 1.0 / (delta * eps);
  const Params params = Params::explicit_params(eps, delta, 8.0 * c_min);
  const double fraction = params.completion_fraction();
  ASSERT_GT(fraction, 0.3);

  Rng rng(GetParam());
  WorkloadConfig config = scenario_thm2(eps, 1.4, 16);  // overload
  config.horizon = 150.0;
  const JobSet jobs = generate_workload(rng, config);
  ASSERT_FALSE(jobs.empty());

  DeadlineScheduler scheduler({.params = params});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 16;
  const SimResult result =
      run_simulation(EngineKind::kEvent, jobs, scheduler, *selector, options);

  // ||C||: profit of completed *started* jobs == total profit (S only
  // completes jobs it started).
  const Profit completed = result.total_profit;
  const Profit started = scheduler.started_profit();
  ASSERT_GT(started, 0.0);
  EXPECT_GE(completed, fraction * started - 1e-9)
      << "Lemma 5 violated: ||C||=" << completed << " ||R||=" << started
      << " fraction=" << fraction;
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma5,
                         ::testing::Values(301, 302, 303, 304, 305, 306));

// Lemma 4's structural precondition, observed: when a started job misses
// its deadline, high-density jobs were monopolizing the machine during its
// window.  We verify the weaker accounting consequence: S never completes
// a job late (started jobs either finish by their deadline or earn 0).
TEST(LemmaProperties, StartedJobsNeverFinishLate) {
  Rng rng(777);
  WorkloadConfig config = scenario_thm2(0.5, 1.8, 8);
  config.horizon = 120.0;
  const JobSet jobs = generate_workload(rng, config);
  DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5)});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 8;
  const SimResult result =
      run_simulation(EngineKind::kEvent, jobs, scheduler, *selector, options);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (result.outcomes[i].completed) {
      EXPECT_LE(result.outcomes[i].completion_time,
                jobs[i].absolute_deadline() + 1e-6);
    }
  }
}

// The paper's "processor steps" accounting: total busy processor time never
// exceeds sum over started jobs of x_i n_i (Observation 2 aggregated).
TEST(LemmaProperties, BusyTimeWithinStartedBudget) {
  Rng rng(888);
  WorkloadConfig config = scenario_thm2(0.5, 1.0, 8);
  config.horizon = 100.0;
  const JobSet jobs = generate_workload(rng, config);
  DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5)});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 8;
  const SimResult result =
      run_simulation(EngineKind::kEvent, jobs, scheduler, *selector, options);

  double budget = 0.0;
  for (JobId j = 0; j < jobs.size(); ++j) {
    const JobAllocation* alloc = scheduler.allocation_of(j);
    if (alloc == nullptr || alloc->n == 0) continue;
    budget += alloc->x * static_cast<double>(alloc->n);
  }
  EXPECT_LE(result.busy_proc_time, budget + 1e-6);
}

}  // namespace
}  // namespace dagsched
