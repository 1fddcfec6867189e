// Scaling invariances of the machine model -- the algebra behind the
// paper's Corollary-1 transformation, checked end to end:
//   * speed s on instance I == speed 1 on I with every node weight / s
//     (and deadlines unchanged), for both engines' completion times;
//   * uniformly scaling all times (works, releases, deadlines) by k scales
//     every completion time by k.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/list_scheduler.h"
#include "core/deadline_scheduler.h"
#include "dag/builder.h"
#include "dag/generators.h"
#include "sim/event_engine.h"
#include "util/rng.h"

namespace dagsched {
namespace {

std::shared_ptr<const Dag> scale_dag(const Dag& dag, double factor) {
  DagBuilder b;
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    b.add_node(dag.node_work(v) * factor);
  }
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    for (const NodeId succ : dag.successors(v)) b.add_edge(v, succ);
  }
  return std::make_shared<const Dag>(std::move(b).build());
}

JobSet random_jobs(std::uint64_t seed, double work_scale, double time_scale) {
  Rng rng(seed);
  JobSet jobs;
  for (int i = 0; i < 10; ++i) {
    RandomDagParams params;
    params.nodes = 15;
    params.edge_prob = 0.12;
    const Dag base = make_random_dag(rng, params);
    const double release = rng.uniform(0.0, 20.0);
    const double greedy =
        (base.total_work() - base.span()) / 4.0 + base.span();
    const double deadline = greedy * rng.uniform(1.6, 3.0);
    jobs.add(Job::with_deadline(scale_dag(base, work_scale),
                                release * time_scale,
                                deadline * time_scale,
                                rng.uniform(0.5, 2.0)));
  }
  jobs.finalize();
  return jobs;
}

template <typename Scheduler>
SimResult run(const JobSet& jobs, double speed) {
  Scheduler scheduler = [] {
    if constexpr (std::is_same_v<Scheduler, DeadlineScheduler>) {
      return DeadlineScheduler({.params = Params::from_epsilon(0.5)});
    } else {
      return ListScheduler({ListPolicy::kEdf, false});
    }
  }();
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 4;
  options.speed = speed;
  return simulate(jobs, scheduler, *selector, options);
}

class ScalingInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScalingInvariance, SpeedEqualsWorkScaling) {
  // Speed 2 on the base instance == speed 1 on the half-work instance.
  const JobSet base = random_jobs(GetParam(), 1.0, 1.0);
  const JobSet halved = random_jobs(GetParam(), 0.5, 1.0);

  const SimResult fast = run<ListScheduler>(base, 2.0);
  const SimResult unit = run<ListScheduler>(halved, 1.0);
  for (std::size_t i = 0; i < base.size(); ++i) {
    ASSERT_EQ(fast.outcomes[i].completed, unit.outcomes[i].completed) << i;
    if (fast.outcomes[i].completed) {
      EXPECT_NEAR(fast.outcomes[i].completion_time,
                  unit.outcomes[i].completion_time, 1e-6)
          << i;
    }
  }

  // The paper scheduler folds speed into its allocation math, so the same
  // invariance must hold for S.
  const SimResult s_fast = run<DeadlineScheduler>(base, 2.0);
  const SimResult s_unit = run<DeadlineScheduler>(halved, 1.0);
  for (std::size_t i = 0; i < base.size(); ++i) {
    ASSERT_EQ(s_fast.outcomes[i].completed, s_unit.outcomes[i].completed)
        << i;
    if (s_fast.outcomes[i].completed) {
      EXPECT_NEAR(s_fast.outcomes[i].completion_time,
                  s_unit.outcomes[i].completion_time, 1e-6)
          << i;
    }
  }
}

TEST_P(ScalingInvariance, UniformTimeDilation) {
  const double k = 3.0;
  const JobSet base = random_jobs(GetParam() ^ 0xD1A7, 1.0, 1.0);
  const JobSet dilated = random_jobs(GetParam() ^ 0xD1A7, k, k);
  const SimResult a = run<DeadlineScheduler>(base, 1.0);
  const SimResult b = run<DeadlineScheduler>(dilated, 1.0);
  for (std::size_t i = 0; i < base.size(); ++i) {
    ASSERT_EQ(a.outcomes[i].completed, b.outcomes[i].completed) << i;
    if (a.outcomes[i].completed) {
      EXPECT_NEAR(k * a.outcomes[i].completion_time,
                  b.outcomes[i].completion_time, 1e-5)
          << i;
    }
  }
  EXPECT_NEAR(a.total_profit, b.total_profit, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScalingInvariance,
                         ::testing::Values(41, 42, 43, 44));

}  // namespace
}  // namespace dagsched
