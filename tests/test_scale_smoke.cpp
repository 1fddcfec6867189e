// Scale smoke: the hot path at 10^4-job scale.
//
// The indexed queues and O(1) kernel bookkeeping only matter past the sizes
// the unit tests exercise, so this suite runs a 20k+ job integer workload
// end to end through both stepping drivers and checks (a) the engines still
// agree on every aggregate (the integer-workload equivalence of
// test_cross_engine.cpp, at scale), and (b) the decision count stays linear
// in the job count -- a quadratic scan re-sneaking into a callback shows up
// here as a blown budget or a timed-out test long before benchmarks run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>

#include "baselines/list_scheduler.h"
#include "core/deadline_scheduler.h"
#include "dag/generators.h"
#include "exp/runner.h"
#include "job/job.h"
#include "util/rng.h"

namespace dagsched {
namespace {

constexpr std::size_t kJobs = 20000;

// Heavy-traffic integer workload: unit node works, integer releases and
// deadlines, far more demand than 16 processors can serve -- the regime
// where the scheduler queues actually grow to O(10^4) members.
JobSet scale_workload() {
  Rng rng(29);
  JobSet jobs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    const auto width = static_cast<std::size_t>(rng.uniform_int(1, 6));
    const auto segments = static_cast<std::size_t>(rng.uniform_int(1, 2));
    auto dag = std::make_shared<const Dag>(
        make_fork_join(segments, width, 1.0, 1.0));
    const auto release = static_cast<Time>(rng.uniform_int(0, 2500));
    const auto slack = static_cast<Time>(rng.uniform_int(4, 40));
    jobs.add(Job::with_deadline(dag, release, release + slack,
                                std::floor(rng.uniform(1.0, 8.0))));
  }
  jobs.finalize();
  return jobs;
}

struct EngineRuns {
  RunMetrics event;
  RunMetrics slot;
};

template <typename MakeScheduler>
EngineRuns run_both(const JobSet& jobs, MakeScheduler make_scheduler) {
  EngineRuns out;
  RunConfig config;
  config.m = 16;
  {
    auto scheduler = make_scheduler();
    config.engine = EngineKind::kEvent;
    out.event = run_workload(jobs, *scheduler, config);
  }
  {
    auto scheduler = make_scheduler();
    config.engine = EngineKind::kSlot;
    out.slot = run_workload(jobs, *scheduler, config);
  }
  return out;
}

void expect_equal_metrics(const EngineRuns& runs) {
  EXPECT_NEAR(runs.event.profit, runs.slot.profit, 1e-6);
  EXPECT_NEAR(runs.event.fraction, runs.slot.fraction, 1e-9);
  EXPECT_EQ(runs.event.completed, runs.slot.completed);
  EXPECT_EQ(runs.event.num_jobs, runs.slot.num_jobs);
  EXPECT_EQ(runs.event.failure, SimFailureKind::kNone);
  EXPECT_EQ(runs.slot.failure, SimFailureKind::kNone);
}

// Decisions are triggered by arrivals, completions, deadlines, and slot
// boundaries; none of those is super-linear in the job count on this
// workload.  The budget is deliberately loose -- it exists to catch
// accidental O(n) decision storms, not to pin the exact count.
void expect_decision_budget(const RunMetrics& metrics, std::size_t num_jobs,
                            std::size_t horizon_slots) {
  EXPECT_LE(metrics.decisions, 8 * num_jobs + 4 * horizon_slots + 1000);
}

TEST(ScaleSmoke, PaperSchedulerAgreesAcrossEnginesAt20k) {
  const JobSet jobs = scale_workload();
  ASSERT_GE(jobs.size(), kJobs);
  const EngineRuns runs = run_both(jobs, [] {
    return std::make_unique<DeadlineScheduler>(
        DeadlineSchedulerOptions{.params = Params::from_epsilon(0.5)});
  });
  expect_equal_metrics(runs);
  EXPECT_GT(runs.event.completed, 0u);
  expect_decision_budget(runs.event, jobs.size(), 2600);
  expect_decision_budget(runs.slot, jobs.size(), 2600);
}

TEST(ScaleSmoke, EdfAgreesAcrossEnginesAt20k) {
  const JobSet jobs = scale_workload();
  const EngineRuns runs = run_both(jobs, [] {
    return std::make_unique<ListScheduler>(
        ListSchedulerOptions{.policy = ListPolicy::kEdf});
  });
  expect_equal_metrics(runs);
  EXPECT_GT(runs.event.completed, 0u);
  expect_decision_budget(runs.event, jobs.size(), 2600);
  expect_decision_budget(runs.slot, jobs.size(), 2600);
}

}  // namespace
}  // namespace dagsched
