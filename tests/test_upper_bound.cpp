// OPT upper bound: soundness (never below any achievable profit) and
// tightness (below the trivial bound when the machine is overloaded).
#include <gtest/gtest.h>

#include <memory>

#include "baselines/list_scheduler.h"
#include "dag/generators.h"
#include "opt/upper_bound.h"
#include "sim/event_engine.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace dagsched {
namespace {

std::shared_ptr<const Dag> share(Dag dag) {
  return std::make_shared<const Dag>(std::move(dag));
}

TEST(Feasibility, DetectsImpossibleJobs) {
  // Chain of 10 with deadline 5: even infinite processors need 10.
  const Job chain =
      Job::with_deadline(share(make_chain(10, 1.0)), 0.0, 5.0, 1.0);
  EXPECT_FALSE(clairvoyantly_feasible(chain, 64, 1.0));
  EXPECT_TRUE(clairvoyantly_feasible(chain, 64, 2.5));  // speed helps

  // Block of 16 with deadline 3 on 4 procs: W/m = 4 > 3.
  const Job block =
      Job::with_deadline(share(make_parallel_block(16, 1.0)), 0.0, 3.0, 1.0);
  EXPECT_FALSE(clairvoyantly_feasible(block, 4, 1.0));
  EXPECT_TRUE(clairvoyantly_feasible(block, 8, 1.0));
}

TEST(UpperBound, TrivialSumsFeasiblePeaks) {
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_chain(10, 1.0)), 0.0, 5.0, 7.0));
  jobs.add(Job::with_deadline(share(make_single_node(1.0)), 0.0, 2.0, 3.0));
  jobs.finalize();
  const OptBound bound = compute_opt_upper_bound(jobs, 4);
  // The chain is infeasible: only the second job's profit counts.
  EXPECT_DOUBLE_EQ(bound.trivial, 3.0);
  EXPECT_LE(bound.value(), 3.0 + 1e-9);
}

TEST(UpperBound, CapacityTightensOverload) {
  // 8 identical unit-node jobs, all in window [0, 2], m=1: capacity 2 of 8
  // work units => at most 2 jobs' profit.
  JobSet jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.add(Job::with_deadline(share(make_single_node(1.0)), 0.0, 2.0, 1.0));
  }
  jobs.finalize();
  const OptBound bound = compute_opt_upper_bound(jobs, 1);
  EXPECT_DOUBLE_EQ(bound.trivial, 8.0);
  ASSERT_TRUE(bound.lp_used);
  EXPECT_NEAR(bound.lp, 2.0, 1e-6);
}

TEST(UpperBound, UnboundedSupportContributesPeak) {
  JobSet jobs;
  jobs.add(Job(share(make_single_node(1.0)), 0.0,
               ProfitFn::plateau_exponential(5.0, 2.0, 0.1)));
  jobs.finalize();
  const OptBound bound = compute_opt_upper_bound(jobs, 1);
  EXPECT_DOUBLE_EQ(bound.value(), 5.0);
}

// Soundness property: the bound is >= the profit of every scheduler run we
// can produce (clairvoyant or not, any speed-1 configuration).
class UpperBoundSound : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UpperBoundSound, DominatesAchievedProfit) {
  Rng rng(GetParam());
  WorkloadConfig config;
  config.m = 8;
  config.target_load = rng.uniform(0.5, 2.0);
  config.horizon = 80.0;
  config.deadline.kind = DeadlinePolicy::Kind::kUniformSlack;
  config.deadline.eps_lo = 0.1;
  config.deadline.eps_hi = 1.5;
  const JobSet jobs = generate_workload(rng, config);
  if (jobs.empty()) GTEST_SKIP();

  const OptBound bound = compute_opt_upper_bound(jobs, config.m);

  for (const ListPolicy policy :
       {ListPolicy::kEdf, ListPolicy::kHdf, ListPolicy::kFcfs}) {
    for (const SelectorKind selector :
         {SelectorKind::kFifo, SelectorKind::kCriticalPath}) {
      ListScheduler scheduler({policy, false, true});
      auto sel = make_selector(selector);
      SimOptions options;
      options.num_procs = config.m;
      const SimResult result = simulate(jobs, scheduler, *sel, options);
      EXPECT_LE(result.total_profit, bound.value() + 1e-6)
          << "policy=" << list_policy_name(policy);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpperBoundSound,
                         ::testing::Values(101, 102, 103, 104, 105, 106));

TEST(UpperBound, LpSkippedAboveJobCap) {
  JobSet jobs;
  for (int i = 0; i < 20; ++i) {
    jobs.add(Job::with_deadline(share(make_single_node(1.0)),
                                static_cast<double>(i), 2.0, 1.0));
  }
  jobs.finalize();
  OptBoundOptions options;
  options.max_lp_jobs = 10;
  const OptBound bound = compute_opt_upper_bound(jobs, 1, options);
  EXPECT_FALSE(bound.lp_used);
  EXPECT_DOUBLE_EQ(bound.value(), bound.trivial);
}

}  // namespace
}  // namespace dagsched
