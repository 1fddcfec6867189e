// OPT upper bound: soundness (never below any achievable profit),
// tightness (below the trivial bound when the machine is overloaded) and
// exactness (equal to a max-flow solution of the same relaxation).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "baselines/list_scheduler.h"
#include "dag/generators.h"
#include "opt/maxflow.h"
#include "opt/upper_bound.h"
#include "sim/kernel/engine_factory.h"
#include "util/rng.h"
#include "workload/scenarios.h"
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
      ListScheduler scheduler({policy, false});
      auto sel = make_selector(selector);
      SimOptions options;
      options.num_procs = config.m;
      const SimResult result =
          run_simulation(EngineKind::kEvent, jobs, scheduler, *sel, options);
      EXPECT_LE(result.total_profit, bound.value() + 1e-6)
          << "policy=" << list_policy_name(policy);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpperBoundSound,
                         ::testing::Values(101, 102, 103, 104, 105, 106));

TEST(UpperBound, LpSkippedAboveJobCap) {
  JobSet jobs;
  for (std::size_t i = 0; i <= kMaxBoundJobs; ++i) {
    jobs.add(Job::with_deadline(share(make_single_node(1.0)),
                                static_cast<double>(i), 2.0, 1.0));
  }
  jobs.finalize();
  ASSERT_EQ(jobs.size(), kMaxBoundJobs + 1);
  const OptBound bound = compute_opt_upper_bound(jobs, 1);
  EXPECT_FALSE(bound.lp_used);
  EXPECT_DOUBLE_EQ(bound.value(), bound.trivial);
}

TEST(UpperBound, OverlappingWindowsShareCapacity) {
  // Jobs in [0, 2] and [1, 3] each need 2 units but [0, 3] holds only 3:
  // the densest job (0.5 work in [5, 6]) earns 1, the pair 3 * 0.5.
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_single_node(2.0)), 0.0, 2.0, 1.0));
  jobs.add(Job::with_deadline(share(make_single_node(2.0)), 1.0, 2.0, 1.0));
  jobs.add(Job::with_deadline(share(make_single_node(0.5)), 5.0, 1.0, 1.0));
  jobs.finalize();
  const OptBound bound = compute_opt_upper_bound(jobs, 1);
  ASSERT_TRUE(bound.lp_used);
  EXPECT_NEAR(bound.value(), 2.5, 1e-9);
}

// Independent reference for the relaxation: the work a fluid schedule can
// give a job set is a max flow (source -> job at W_j, job -> elementary
// segment inside [r_j, d_j], segment -> sink at m*s*|seg|), and the
// density-order greedy grants each job its marginal flow.
Profit flow_reference(const JobSet& jobs, ProcCount m, double speed) {
  struct RefJob {
    Time release;
    Time due;
    Work work;
    Profit peak;
  };
  std::vector<RefJob> finite;
  Profit trivial = 0.0;
  Profit value = 0.0;
  for (const Job& job : jobs.jobs()) {
    if (!clairvoyantly_feasible(job, m, speed)) continue;
    trivial += job.peak_profit();
    const Time support = job.profit().support_end();
    if (support < kTimeInfinity) {
      finite.push_back({job.release(), job.release() + support, job.work(),
                        job.peak_profit()});
    } else {
      value += job.peak_profit();
    }
  }
  std::stable_sort(finite.begin(), finite.end(),
                   [](const RefJob& a, const RefJob& b) {
                     return a.peak / a.work > b.peak / b.work;
                   });
  std::vector<Time> cuts;
  for (const RefJob& job : finite) {
    cuts.push_back(job.release);
    cuts.push_back(job.due);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  const std::size_t segments = cuts.empty() ? 0 : cuts.size() - 1;

  const auto prefix_flow = [&](std::size_t count) {
    MaxFlow flow(count + segments + 2);
    const std::size_t source = count + segments;
    const std::size_t sink = source + 1;
    for (std::size_t j = 0; j < count; ++j) {
      flow.add_edge(source, j, finite[j].work);
      for (std::size_t s = 0; s < segments; ++s) {
        if (finite[j].release <= cuts[s] && cuts[s + 1] <= finite[j].due) {
          flow.add_edge(j, count + s, finite[j].work);
        }
      }
    }
    for (std::size_t s = 0; s < segments; ++s) {
      flow.add_edge(count + s, sink,
                    static_cast<double>(m) * speed * (cuts[s + 1] - cuts[s]));
    }
    return flow.max_flow(source, sink);
  };
  double previous = 0.0;
  for (std::size_t i = 0; i < finite.size(); ++i) {
    const double current = prefix_flow(i + 1);
    value += finite[i].peak / finite[i].work * (current - previous);
    previous = current;
  }
  return std::min(trivial, value);
}

class UpperBoundOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UpperBoundOracle, EqualsDensityOrderedFlow) {
  const ProcCount m = 4;
  const std::uint64_t seed = GetParam();
  const double load = 0.5 + 0.5 * static_cast<double>(seed % 5);
  for (WorkloadConfig config :
       {scenario_thm2(0.25, load, m), scenario_tight(load, m),
        scenario_reasonable(load, m),
        scenario_profit(0.5, load, m,
                        ProfitPolicy::Shape::kPlateauExp)}) {
    config.horizon = 200.0;
    Rng rng(seed);
    const JobSet generated = generate_workload(rng, config);
    JobSet jobs;
    for (const Job& job : generated.jobs()) {
      if (jobs.size() == 40) break;
      jobs.add(job);
    }
    jobs.finalize();
    for (const double speed : {1.0, 1.5}) {
      const OptBound bound = compute_opt_upper_bound(jobs, m, speed);
      ASSERT_TRUE(bound.lp_used);
      const Profit expected = flow_reference(jobs, m, speed);
      EXPECT_NEAR(bound.value(), expected, 1e-9 * std::fabs(expected))
          << "jobs=" << jobs.size() << " speed=" << speed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpperBoundOracle,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace dagsched
