// Full-stack property tests: every scheduler produces a legal schedule
// (validated trace) and sane accounting on randomized workloads.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/equi.h"
#include "baselines/federated.h"
#include "baselines/list_scheduler.h"
#include "core/deadline_scheduler.h"
#include "dag/generators.h"
#include "exp/runner.h"
#include "sim/event_engine.h"
#include "workload/scenarios.h"

namespace dagsched {
namespace {

enum class Which {
  kPaperS,
  kPaperSNoAdmission,
  kPaperSWorkConserving,
  kEdf,
  kLlf,
  kHdf,
  kFcfs,
  kFederated,
  kEqui,
  kPaperSRecompute,
};

std::unique_ptr<SchedulerBase> make_scheduler(Which which) {
  switch (which) {
    case Which::kPaperS:
      return std::make_unique<DeadlineScheduler>(
          DeadlineSchedulerOptions{.params = Params::from_epsilon(0.5)});
    case Which::kPaperSNoAdmission:
      return std::make_unique<DeadlineScheduler>(DeadlineSchedulerOptions{
          .params = Params::from_epsilon(0.5), .enforce_admission = false});
    case Which::kPaperSWorkConserving:
      return std::make_unique<DeadlineScheduler>(DeadlineSchedulerOptions{
          .params = Params::from_epsilon(0.5), .work_conserving = true});
    case Which::kEdf:
      return std::make_unique<ListScheduler>(
          ListSchedulerOptions{.policy = ListPolicy::kEdf});
    case Which::kLlf:
      return std::make_unique<ListScheduler>(
          ListSchedulerOptions{.policy = ListPolicy::kLlf});
    case Which::kHdf:
      return std::make_unique<ListScheduler>(
          ListSchedulerOptions{.policy = ListPolicy::kHdf});
    case Which::kFcfs:
      return std::make_unique<ListScheduler>(
          ListSchedulerOptions{.policy = ListPolicy::kFcfs});
    case Which::kFederated:
      return std::make_unique<FederatedScheduler>();
    case Which::kEqui:
      return std::make_unique<EquiScheduler>();
    case Which::kPaperSRecompute:
      return std::make_unique<DeadlineScheduler>(DeadlineSchedulerOptions{
          .params = Params::from_epsilon(0.5),
          .recompute_on_admission = true});
  }
  return nullptr;
}

class AllSchedulers
    : public ::testing::TestWithParam<std::tuple<Which, std::uint64_t>> {};

TEST_P(AllSchedulers, ProducesLegalScheduleAndSaneAccounting) {
  const auto [which, seed] = GetParam();
  Rng rng(seed);
  WorkloadConfig config = scenario_shootout(1.0, 8, 0.2, 1.2);
  config.horizon = 120.0;
  const JobSet jobs = generate_workload(rng, config);
  ASSERT_FALSE(jobs.empty());

  auto scheduler = make_scheduler(which);
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 8;
  options.record_trace = true;
  const SimResult result = simulate(jobs, *scheduler, *selector, options);

  // Legal machine behaviour, end to end.
  EXPECT_EQ(result.trace.validate(jobs, 8, 1.0), "") << scheduler->name();

  // Accounting invariants.
  EXPECT_LE(result.total_profit, jobs.total_peak_profit() + 1e-9);
  EXPECT_LE(result.jobs_completed, jobs.size());
  Work executed = 0.0;
  Work total_work = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    executed += result.outcomes[i].executed;
    total_work += jobs[i].work();
    if (result.outcomes[i].completed) {
      EXPECT_NEAR(result.outcomes[i].executed, jobs[i].work(), 1e-6);
      EXPECT_GE(result.outcomes[i].completion_time, jobs[i].release());
      EXPECT_GE(result.outcomes[i].first_start, jobs[i].release() - 1e-9);
    }
  }
  EXPECT_LE(executed, total_work + 1e-6);
  // Work conservation: busy processor-time equals executed work at speed 1.
  EXPECT_NEAR(result.busy_proc_time, executed, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AllSchedulers,
    ::testing::Combine(
        ::testing::Values(Which::kPaperS, Which::kPaperSNoAdmission,
                          Which::kPaperSWorkConserving, Which::kEdf,
                          Which::kLlf, Which::kHdf, Which::kFcfs,
                          Which::kFederated, Which::kEqui,
                          Which::kPaperSRecompute),
        ::testing::Values(1001u, 1002u, 1003u)));

// Speed monotonicity: more speed never hurts the paper scheduler on the
// same instance (a sanity property behind Corollaries 1 and 2).
TEST(SpeedMonotonicity, PaperSchedulerProfitsFromSpeed) {
  Rng rng(4242);
  WorkloadConfig config = scenario_tight(0.8, 8);
  config.horizon = 120.0;
  const JobSet jobs = generate_workload(rng, config);
  double prev = -1.0;
  for (const double speed : {1.0, 1.5, 2.0, 2.5, 3.0}) {
    DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5)});
    RunConfig run;
    run.m = 8;
    run.speed = speed;
    const RunMetrics metrics = run_workload(jobs, scheduler, run);
    // Not strictly monotone in theory (admission is myopic), but must not
    // collapse; allow small dips.
    EXPECT_GE(metrics.profit, prev * 0.75) << "speed " << speed;
    prev = std::max(prev, metrics.profit);
  }
}

}  // namespace
}  // namespace dagsched
