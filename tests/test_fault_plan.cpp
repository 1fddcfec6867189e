// FaultPlan generation: determinism, the min_procs floor, integral
// rounding, overrun multipliers, spec parsing, and generate-time metadata
// corruption.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "dag/generators.h"
#include "fault/corruption.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "job/job.h"

namespace dagsched {
namespace {

FaultPlanConfig churn_config(double mtbf, double mttr, Time horizon,
                             ProcCount min_procs = 1) {
  FaultPlanConfig config;
  config.seed = 11;
  config.mtbf = mtbf;
  config.mttr = mttr;
  config.horizon = horizon;
  config.min_procs = min_procs;
  return config;
}

TEST(FaultPlan, SameConfigSamePlan) {
  const FaultPlanConfig config = churn_config(20.0, 4.0, 300.0);
  const FaultPlan a = build_fault_plan(config, 8);
  const FaultPlan b = build_fault_plan(config, 8);
  EXPECT_EQ(a.down_intervals(), b.down_intervals());
  EXPECT_FALSE(a.down_intervals().empty());
}

TEST(FaultPlan, DifferentSeedsDifferentPlans) {
  FaultPlanConfig config = churn_config(20.0, 4.0, 300.0);
  const FaultPlan a = build_fault_plan(config, 8);
  config.seed = 12;
  const FaultPlan b = build_fault_plan(config, 8);
  EXPECT_NE(a.down_intervals(), b.down_intervals());
}

TEST(FaultPlan, MinProcsFloorHolds) {
  // Heavy churn: failures every ~3 time units, slow repair.  Without the
  // floor the machine would regularly drain to zero.
  const FaultPlanConfig config = churn_config(3.0, 10.0, 200.0, 3);
  const FaultPlan plan = build_fault_plan(config, 8);
  for (Time t = 0.0; t <= 220.0; t += 0.25) {
    EXPECT_GE(plan.num_up(t), 3u) << "at t=" << t;
  }
}

TEST(FaultPlan, IntervalsSortedAndDisjointPerProc) {
  const FaultPlanConfig config = churn_config(5.0, 5.0, 200.0, 2);
  const FaultPlan plan = build_fault_plan(config, 4);
  ASSERT_FALSE(plan.down_intervals().empty());
  Time prev_begin = 0.0;
  for (const DownInterval& iv : plan.down_intervals()) {
    EXPECT_GE(iv.begin, prev_begin);  // globally sorted by begin
    EXPECT_GT(iv.end, iv.begin);
    prev_begin = iv.begin;
  }
  for (ProcCount p = 0; p < 4; ++p) {
    Time prev_end = 0.0;
    for (const DownInterval& iv : plan.down_intervals()) {
      if (iv.proc != p) continue;
      EXPECT_GE(iv.begin, prev_end) << "proc " << p;
      prev_end = iv.end;
    }
  }
}

TEST(FaultPlan, IntegralTimesRoundToWholeSlots) {
  FaultPlanConfig config = churn_config(10.0, 2.0, 150.0);
  config.integral_times = true;
  const FaultPlan plan = build_fault_plan(config, 6);
  ASSERT_FALSE(plan.down_intervals().empty());
  for (const DownInterval& iv : plan.down_intervals()) {
    EXPECT_EQ(iv.begin, std::floor(iv.begin));
    EXPECT_EQ(iv.end, std::floor(iv.end));
    EXPECT_GE(iv.end - iv.begin, 1.0);
  }
}

TEST(FaultPlan, WorkMultiplierDeterministicAndBounded) {
  FaultPlanConfig config;
  config.seed = 5;
  config.overrun_prob = 0.5;
  config.overrun_factor = 2.5;
  const FaultPlan plan = build_fault_plan(config, 4);
  bool any_scaled = false;
  for (JobId j = 0; j < 20; ++j) {
    for (NodeId v = 0; v < 10; ++v) {
      const double mult = plan.work_multiplier(j, v);
      EXPECT_GE(mult, 1.0);
      EXPECT_LE(mult, 2.5);
      EXPECT_EQ(mult, plan.work_multiplier(j, v));  // pure function
      if (mult > 1.0) any_scaled = true;
    }
  }
  EXPECT_TRUE(any_scaled);
}

TEST(FaultPlan, NoOverrunMeansUnitMultipliers) {
  FaultPlanConfig config;
  config.overrun_prob = 0.0;
  config.overrun_factor = 3.0;
  const FaultPlan plan = build_fault_plan(config, 4);
  for (JobId j = 0; j < 5; ++j) {
    EXPECT_EQ(plan.work_multiplier(j, 0), 1.0);
  }
}

TEST(FaultInjector, TransitionsMatchIntervalsAndOrder) {
  const FaultPlanConfig config = churn_config(10.0, 3.0, 200.0, 2);
  const FaultInjector injector(build_fault_plan(config, 6));
  const auto& plan = injector.plan();
  EXPECT_EQ(injector.transitions().size(),
            2 * plan.down_intervals().size());
  const auto& trs = injector.transitions();
  for (std::size_t i = 1; i < trs.size(); ++i) {
    EXPECT_GE(trs[i].time, trs[i - 1].time);
    if (trs[i].time == trs[i - 1].time && trs[i].up) {
      // Ties must order recoveries before failures.
      EXPECT_TRUE(trs[i - 1].up);
    }
  }
}

TEST(FaultSpec, ParsesFullSpec) {
  std::string error;
  const auto config = parse_fault_spec(
      "mtbf=50,mttr=5,seed=7,horizon=500,overrun-prob=0.2,overrun-factor=2,"
      "restart=zero,min-procs=2,integral=1",
      &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->seed, 7u);
  EXPECT_EQ(config->mtbf, 50.0);
  EXPECT_EQ(config->mttr, 5.0);
  EXPECT_EQ(config->horizon, 500.0);
  EXPECT_EQ(config->min_procs, 2u);
  EXPECT_TRUE(config->integral_times);
  EXPECT_EQ(config->overrun_prob, 0.2);
  EXPECT_EQ(config->overrun_factor, 2.0);
  EXPECT_EQ(config->restart, RestartPolicy::kRestartFromZero);
  EXPECT_TRUE(config->churn_enabled());
  EXPECT_TRUE(config->overrun_enabled());
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  const char* bad[] = {
      "mtbf",                    // not key=value
      "mtbf=abc",                // not a number
      "bogus-key=1",             // unknown key
      "restart=maybe",           // bad enum
      "mtbf=-1",                 // validate(): negative mtbf
      "mtbf=10",                 // validate(): churn without horizon
      "mtbf=10,horizon=50,mttr=0",  // validate(): mttr must be positive
      "overrun-prob=1.5",        // validate(): out of range
      "overrun-factor=0.5",      // validate(): below 1
      "min-procs=0",             // below 1
  };
  for (const char* spec : bad) {
    std::string error;
    EXPECT_FALSE(parse_fault_spec(spec, &error).has_value()) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

TEST(FaultSpec, InjectorBuilderRejectsMinProcsAboveMachine) {
  const std::string spec = "mtbf=10,mttr=2,horizon=50,min-procs=5";
  std::string error;
  EXPECT_FALSE(make_fault_injector(spec, 4, error).has_value());
  EXPECT_EQ(error, "min-procs exceeds the machine size m=4");

  error.clear();
  const auto injector = make_fault_injector(spec, 5, error);
  ASSERT_TRUE(injector.has_value()) << error;
  EXPECT_EQ(injector->plan().num_procs(), 5u);

  EXPECT_FALSE(make_fault_injector("mtbf=abc", 4, error).has_value());
  EXPECT_FALSE(error.empty());
}

JobSet small_step_jobs() {
  JobSet jobs;
  auto dag = std::make_shared<const Dag>(make_parallel_block(4, 1.0));
  for (int i = 0; i < 12; ++i) {
    jobs.add(Job::with_deadline(dag, static_cast<Time>(i), 10.0, 2.0));
  }
  jobs.finalize();
  return jobs;
}

TEST(Corruption, DeterministicAndDisabledIsIdentity) {
  const JobSet jobs = small_step_jobs();
  CorruptionConfig config;
  config.seed = 3;
  config.prob = 0.0;
  const JobSet same = corrupt_metadata(jobs, config);
  ASSERT_EQ(same.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(same[i].release(), jobs[i].release());
    EXPECT_EQ(same[i].peak_profit(), jobs[i].peak_profit());
  }

  config.prob = 1.0;
  config.severity = 0.3;
  const JobSet a = corrupt_metadata(jobs, config);
  const JobSet b = corrupt_metadata(jobs, config);
  ASSERT_EQ(a.size(), b.size());
  bool any_changed = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].peak_profit(), b[i].peak_profit());
    EXPECT_EQ(a[i].profit().plateau_end(), b[i].profit().plateau_end());
    EXPECT_GT(a[i].peak_profit(), 0.0);
    if (a[i].peak_profit() != jobs[i].peak_profit() ||
        a[i].profit().plateau_end() != jobs[i].profit().plateau_end()) {
      any_changed = true;
    }
  }
  EXPECT_TRUE(any_changed);
}

}  // namespace
}  // namespace dagsched
