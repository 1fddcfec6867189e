// Executable versions of the paper's Section-4 examples:
//  * Figure 1 / Theorem 1: on the chain-next-to-block DAG, an adversarial
//    semi-non-clairvoyant execution takes (2 - 1/m) L while a clairvoyant
//    one takes exactly L = W/m, and speed 2 - 1/m is exactly the threshold
//    for meeting a deadline of L.
//  * Figure 2: even the clairvoyant executor needs ~ (W-L)/m + L on the
//    chain-then-block DAG, converging as the node size shrinks.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/list_scheduler.h"
#include "dag/generators.h"
#include "job/job.h"
#include "sim/kernel/engine_factory.h"

namespace dagsched {
namespace {

std::shared_ptr<const Dag> share(Dag dag) {
  return std::make_shared<const Dag>(std::move(dag));
}

SimResult run_one(std::shared_ptr<const Dag> dag, Time deadline, ProcCount m,
                  double speed, SelectorKind selector) {
  JobSet jobs;
  jobs.add(Job::with_deadline(std::move(dag), 0.0, deadline, 1.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kFcfs, false});
  auto sel = make_selector(selector);
  SimOptions options;
  options.num_procs = m;
  options.speed = speed;
  return run_simulation(EngineKind::kEvent, jobs, scheduler, *sel, options);
}

class Fig1 : public ::testing::TestWithParam<ProcCount> {};

TEST_P(Fig1, AdversaryForcesGrahamBoundClairvoyantAchievesIdeal) {
  const ProcCount m = GetParam();
  // chain_nodes = 2m so the block count (m-1)*2m is divisible by m.
  const std::size_t chain = 2 * static_cast<std::size_t>(m);
  auto dag = share(make_fig1_dag(m, chain, 1.0));
  const Work L = dag->span();
  const Work W = dag->total_work();
  ASSERT_DOUBLE_EQ(L, W / static_cast<double>(m));

  // Adversarial execution: block first, then the chain alone.
  const SimResult bad = run_one(dag, 10.0 * L, m, 1.0,
                                SelectorKind::kAdversarial);
  ASSERT_TRUE(bad.outcomes[0].completed);
  const double graham = (W - L) / static_cast<double>(m) + L;
  EXPECT_NEAR(bad.outcomes[0].completion_time, graham, 1e-6);
  EXPECT_NEAR(bad.outcomes[0].completion_time,
              (2.0 - 1.0 / static_cast<double>(m)) * L, 1e-6);

  // Clairvoyant execution finishes in exactly W/m = L.
  const SimResult good = run_one(dag, 10.0 * L, m, 1.0,
                                 SelectorKind::kCriticalPath);
  ASSERT_TRUE(good.outcomes[0].completed);
  EXPECT_NEAR(good.outcomes[0].completion_time, L, 1e-6);
}

TEST_P(Fig1, SpeedThresholdIsTwoMinusOneOverM) {
  const ProcCount m = GetParam();
  const std::size_t chain = 2 * static_cast<std::size_t>(m);
  auto dag = share(make_fig1_dag(m, chain, 1.0));
  const Work L = dag->span();
  const double threshold = 2.0 - 1.0 / static_cast<double>(m);

  // With deadline L, the adversarial execution needs speed >= 2 - 1/m.
  const SimResult at = run_one(dag, L * (1.0 + 1e-9), m, threshold,
                               SelectorKind::kAdversarial);
  EXPECT_TRUE(at.outcomes[0].completed);
  EXPECT_DOUBLE_EQ(at.total_profit, 1.0);

  const SimResult below =
      run_one(dag, L, m, threshold - 0.05, SelectorKind::kAdversarial);
  EXPECT_DOUBLE_EQ(below.total_profit, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Machines, Fig1,
                         ::testing::Values(2u, 3u, 4u, 8u, 16u));

TEST(Fig2, ClairvoyantConvergesToGrahamBoundAsNodesShrink) {
  const ProcCount m = 4;
  const Work W = 32.0, L = 4.0;
  double prev_gap = 1e9;
  for (const double g : {1.0, 0.5, 0.25, 0.125}) {
    const auto chain_nodes = static_cast<std::size_t>(L / g) - 1;
    const auto block_nodes =
        static_cast<std::size_t>(W / g) - chain_nodes;
    auto dag = share(make_fig2_dag(chain_nodes, block_nodes, g));
    ASSERT_NEAR(dag->span(), L, 1e-9);
    ASSERT_NEAR(dag->total_work(), W, 1e-9);

    const SimResult result =
        run_one(dag, 100.0, m, 1.0, SelectorKind::kCriticalPath);
    ASSERT_TRUE(result.outcomes[0].completed);
    const double target = (W - L) / static_cast<double>(m) + L;
    const double completion = result.outcomes[0].completion_time;
    // Paper: completion = (W-L)/m + L - g (1 - 1/m) + rounding; always
    // within one node of the bound, from below.
    EXPECT_LE(completion, target + 1e-9);
    EXPECT_GE(completion, target - 2.0 * g);
    const double gap = target - completion;
    EXPECT_LE(gap, prev_gap + 1e-9);  // converges monotonically
    prev_gap = gap;
  }
}

TEST(Fig2, EvenInfiniteProcessorsCannotBeatSpan) {
  auto dag = share(make_fig2_dag(7, 64, 0.5));  // span 4
  const SimResult result =
      run_one(dag, 100.0, 512, 1.0, SelectorKind::kCriticalPath);
  ASSERT_TRUE(result.outcomes[0].completed);
  EXPECT_GE(result.outcomes[0].completion_time, dag->span() - 1e-9);
}

}  // namespace
}  // namespace dagsched
