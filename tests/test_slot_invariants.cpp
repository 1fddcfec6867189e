// Slot-engine legality for the whole scheduler zoo, plus the truncation path
// of the OPT machinery (branch-and-bound node limit) and
// bracket-ordering stress for the combined OPT estimate.
#include <gtest/gtest.h>

#include "exp/runner.h"
#include "opt/exact.h"
#include "sim/kernel/engine_factory.h"
#include "workload/scenarios.h"

namespace dagsched {
namespace {

class SlotZoo
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(SlotZoo, LegalScheduleOnSlotEngine) {
  const auto& [name, seed] = GetParam();
  Rng rng(seed);
  WorkloadConfig config =
      scenario_profit(0.5, 1.0, 8, ProfitPolicy::Shape::kPlateauLinear);
  config.horizon = 70.0;
  const JobSet jobs = generate_workload(rng, config);
  ASSERT_FALSE(jobs.empty());

  auto scheduler = make_named_scheduler(name, 0.5);
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 8;
  options.record_trace = true;
  const SimResult result =
      run_simulation(EngineKind::kSlot, jobs, *scheduler, *selector, options);
  EXPECT_EQ(result.trace.validate(jobs, 8, 1.0), "") << name;
  EXPECT_LE(result.total_profit, jobs.total_peak_profit() + 1e-9) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SlotZoo,
    ::testing::Combine(::testing::Values("s", "s-wc", "profit", "edf", "hdf",
                                         "federated", "equi"),
                       ::testing::Values(71u, 72u)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::uint64_t>>&
           param_info) {
      std::string label = std::get<0>(param_info.param) + "_" +
                          std::to_string(std::get<1>(param_info.param));
      for (char& ch : label) {
        if (ch == '-') ch = '_';
      }
      return label;
    });

TEST(ExactCaps, NodeLimitTruncationReported) {
  // 18 mutually-conflicting jobs with a 1-node budget: truncated result,
  // still a valid lower bound (>= 0, <= total profit).
  std::vector<SeqJob> jobs;
  for (int i = 0; i < 18; ++i) {
    jobs.push_back({0.0, 10.0, 2.0, 1.0});
  }
  const ExactOptResult result = exact_opt_sequential(jobs, 2, 1.0, 10);
  EXPECT_FALSE(result.proven_optimal);
  EXPECT_GE(result.value, 0.0);
  EXPECT_LE(result.value, 18.0);
}

class BracketOrdering : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BracketOrdering, LowerNeverExceedsUpper) {
  Rng rng(GetParam());
  // Alternate between step-profit and decaying-profit workloads: the
  // decaying case once exposed a planner that counted peaks for jobs
  // finishing past their plateau (regression guard).
  WorkloadConfig config =
      GetParam() % 2 == 0
          ? scenario_shootout(rng.uniform(0.5, 2.5), 8, 0.2, 1.5)
          : scenario_profit(0.5, rng.uniform(0.5, 1.5), 8,
                            ProfitPolicy::Shape::kPlateauExp);
  config.horizon = 60.0;
  const JobSet jobs = generate_workload(rng, config);
  if (jobs.empty()) GTEST_SKIP();
  // estimate_opt internally DS_CHECKs upper >= lower; surviving the call
  // plus this assertion covers the planner against the LP bound.
  const OptBracket bracket = estimate_opt(jobs, 8);
  EXPECT_LE(bracket.lower, bracket.upper + 1e-6);
  EXPECT_FALSE(bracket.lower_scheduler.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BracketOrdering,
                         ::testing::Values(601, 602, 603, 604, 605, 606, 607,
                                           608, 609, 610));

}  // namespace
}  // namespace dagsched
