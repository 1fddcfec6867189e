// Exact OPT for sequential-job instances: Horn feasibility, branch & bound,
// and consistency with the LP upper bound and with achieved schedules.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/list_scheduler.h"
#include "dag/generators.h"
#include "opt/exact.h"
#include "opt/upper_bound.h"
#include "sim/kernel/engine_factory.h"
#include "util/rng.h"

namespace dagsched {
namespace {

SeqJob seq(Time release, Time deadline, Work work, Profit profit = 1.0) {
  return {release, deadline, work, profit};
}

TEST(Feasible, EmptyAndSingles) {
  EXPECT_TRUE(preemptive_feasible({}, 1));
  EXPECT_TRUE(preemptive_feasible({seq(0, 2, 2)}, 1));
  EXPECT_FALSE(preemptive_feasible({seq(0, 2, 2.5)}, 1));
  EXPECT_FALSE(preemptive_feasible({seq(0, 2, 2.5)}, 8));  // one machine each
  EXPECT_TRUE(preemptive_feasible({seq(0, 2, 2.5)}, 1, 2.0));  // speed helps
}

TEST(Feasible, CapacityOnOneMachine) {
  // Two unit jobs in [0,2] on one machine: exactly fits.
  EXPECT_TRUE(preemptive_feasible({seq(0, 2, 1), seq(0, 2, 1)}, 1));
  // Three do not.
  EXPECT_FALSE(
      preemptive_feasible({seq(0, 2, 1), seq(0, 2, 1), seq(0, 2, 1)}, 1));
  // But fit on two machines.
  EXPECT_TRUE(
      preemptive_feasible({seq(0, 2, 1), seq(0, 2, 1), seq(0, 2, 1)}, 2));
}

TEST(Feasible, RequiresPreemptionOrMigration) {
  // Classic: three jobs of work 2 in [0,3] on two machines: total work 6 =
  // capacity 6, feasible only with migration/preemption (McNaughton).
  EXPECT_TRUE(
      preemptive_feasible({seq(0, 3, 2), seq(0, 3, 2), seq(0, 3, 2)}, 2));
  // Tighten one deadline: infeasible.
  EXPECT_FALSE(
      preemptive_feasible({seq(0, 1.9, 2), seq(0, 3, 2), seq(0, 3, 2)}, 2));
}

TEST(Feasible, WindowStructureMatters) {
  // Job B nested inside job A's window: A=[0,4] w=3, B=[1,2] w=1, m=1:
  // B needs [1,2] entirely, A has 3 units in the remaining 3 => feasible.
  EXPECT_TRUE(preemptive_feasible({seq(0, 4, 3), seq(1, 2, 1)}, 1));
  // A with work 3.5 no longer fits around B.
  EXPECT_FALSE(preemptive_feasible({seq(0, 4, 3.5), seq(1, 2, 1)}, 1));
}

TEST(ExactOpt, PicksBestSubset) {
  // One machine, window [0,2]: can serve 2 units of work.  Jobs: profit 3
  // (work 2), profit 2+2 (work 1 each).  Best: the two small ones.
  const std::vector<SeqJob> jobs = {seq(0, 2, 2, 3.0), seq(0, 2, 1, 2.0),
                                    seq(0, 2, 1, 2.0)};
  const ExactOptResult result = exact_opt_sequential(jobs, 1);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_DOUBLE_EQ(result.value, 4.0);
  EXPECT_FALSE(result.selected[0]);
  EXPECT_TRUE(result.selected[1]);
  EXPECT_TRUE(result.selected[2]);
}

TEST(ExactOpt, TakesEverythingWhenFeasible) {
  const std::vector<SeqJob> jobs = {seq(0, 10, 2, 1), seq(1, 8, 2, 1),
                                    seq(2, 9, 2, 1)};
  const ExactOptResult result = exact_opt_sequential(jobs, 2);
  EXPECT_DOUBLE_EQ(result.value, 3.0);
}

TEST(ExactOpt, MatchesBruteForceOnRandomInstances) {
  Rng rng(31337);
  for (int trial = 0; trial < 20; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 9));
    const ProcCount m = static_cast<ProcCount>(rng.uniform_int(1, 3));
    std::vector<SeqJob> jobs;
    for (std::size_t i = 0; i < n; ++i) {
      const Time release = rng.uniform(0.0, 10.0);
      const Time deadline = release + rng.uniform(0.5, 6.0);
      const Work work = rng.uniform(0.2, deadline - release);
      jobs.push_back(seq(release, deadline, work, rng.uniform(0.5, 3.0)));
    }
    // Brute force over all subsets.
    double best = 0.0;
    for (std::size_t mask = 0; mask < (1u << n); ++mask) {
      std::vector<SeqJob> subset;
      double profit = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (mask & (1u << i)) {
          subset.push_back(jobs[i]);
          profit += jobs[i].profit;
        }
      }
      if (profit > best && preemptive_feasible(subset, m)) best = profit;
    }
    const ExactOptResult result = exact_opt_sequential(jobs, m);
    ASSERT_TRUE(result.proven_optimal);
    EXPECT_NEAR(result.value, best, 1e-9) << "trial " << trial;
  }
}

TEST(ToSequential, AcceptsChainsRejectsParallel) {
  JobSet jobs;
  jobs.add(Job::with_deadline(
      std::make_shared<const Dag>(make_chain(4, 1.0)), 0.0, 10.0, 2.0));
  jobs.add(Job::with_deadline(
      std::make_shared<const Dag>(make_single_node(3.0)), 1.0, 5.0, 1.0));
  jobs.finalize();
  const auto sequential = to_sequential(jobs);
  ASSERT_TRUE(sequential.has_value());
  ASSERT_EQ(sequential->size(), 2u);
  EXPECT_DOUBLE_EQ((*sequential)[0].work, 4.0);
  EXPECT_DOUBLE_EQ((*sequential)[0].deadline, 10.0);

  JobSet parallel;
  parallel.add(Job::with_deadline(
      std::make_shared<const Dag>(make_parallel_block(4, 1.0)), 0.0, 10.0,
      1.0));
  parallel.finalize();
  EXPECT_FALSE(to_sequential(parallel).has_value());
}

// Consistency: exact OPT lies within [any achieved schedule, LP bound].
class ExactBracket : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExactBracket, ExactWithinLpAndAchieved) {
  Rng rng(GetParam());
  JobSet jobs;
  for (int i = 0; i < 12; ++i) {
    const auto nodes = static_cast<std::size_t>(rng.uniform_int(1, 6));
    const Time release = rng.uniform(0.0, 20.0);
    auto dag = std::make_shared<const Dag>(make_chain(nodes, 1.0));
    const Time deadline = dag->total_work() * rng.uniform(1.1, 3.0);
    jobs.add(Job::with_deadline(std::move(dag), release, deadline,
                                rng.uniform(0.5, 2.0)));
  }
  jobs.finalize();
  const auto sequential = to_sequential(jobs);
  ASSERT_TRUE(sequential.has_value());
  const ProcCount m = 2;
  const ExactOptResult exact = exact_opt_sequential(*sequential, m);
  ASSERT_TRUE(exact.proven_optimal);

  const OptBound lp = compute_opt_upper_bound(jobs, m);
  EXPECT_LE(exact.value, lp.value() + 1e-6);

  ListScheduler edf({ListPolicy::kEdf, false});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = m;
  const SimResult achieved =
      run_simulation(EngineKind::kEvent, jobs, edf, *selector, options);
  EXPECT_GE(exact.value, achieved.total_profit - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactBracket,
                         ::testing::Values(21, 22, 23, 24, 25));

}  // namespace
}  // namespace dagsched
