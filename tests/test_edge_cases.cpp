// Assorted edge-case coverage: option caps, boundary semantics, zero-size
// requests -- the corners a downstream user will eventually hit.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/profit_scheduler.h"
#include "dag/generators.h"
#include "exp/runner.h"
#include "sim/kernel/engine_factory.h"
#include "sim/views.h"
#include "util/arena.h"
#include "workload/analyzer.h"

namespace dagsched {
namespace {

std::shared_ptr<const Dag> share(Dag dag) {
  return std::make_shared<const Dag>(std::move(dag));
}

TEST(EdgeCases, SelectorWithZeroBudgetReturnsNothing) {
  const Dag dag = make_parallel_block(4, 1.0);
  BumpArena arena;
  UnfoldingState state(dag, arena);
  for (const SelectorKind kind :
       {SelectorKind::kFifo, SelectorKind::kRandom,
        SelectorKind::kAdversarial}) {
    auto selector = make_selector(kind, 3);
    std::vector<NodeId> out{99};  // pre-filled: select must clear
    selector->select(dag, state, 0, out);
    EXPECT_TRUE(out.empty()) << selector_kind_name(kind);
  }
}

TEST(EdgeCases, DeadlineUnreachableBoundarySemantics) {
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_single_node(2.0)), 1.0, 4.0, 1.0));
  jobs.finalize();
  JobStateTable state;
  state.reset(jobs);
  state.set_arrived(0);
  const JobView view(&jobs[0], &state, 0);
  // d = 5.  Strictly before: reachable.  At d: unreachable (remaining work
  // cannot finish by d).
  EXPECT_FALSE(view.deadline_unreachable(4.999));
  EXPECT_TRUE(view.deadline_unreachable(5.0));
  EXPECT_TRUE(view.deadline_unreachable(5.001));
}

/// Runs job 0 whenever it is active and never grants job 1, yet always
/// promises a wakeup next slot, so the slot engine cannot quiesce.
class StarvingScheduler final : public SchedulerBase {
 public:
  std::string name() const override { return "starving"; }
  Time next_wakeup(const EngineContext& ctx) const override {
    return ctx.now() + 1.0;
  }
  void decide(const EngineContext& ctx, Assignment& out) override {
    out.clear();
    for (const JobId job : ctx.active_jobs()) {
      if (job == 0) out.add(job, 1);
    }
  }
};

TEST(EdgeCases, SlotEngineDerivedHorizonFailsStarvedRun) {
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_single_node(1.0)), 0.0, 1000.0, 2.0));
  jobs.add(Job::with_deadline(share(make_single_node(1.0)), 0.0, 1000.0, 3.0));
  jobs.finalize();
  StarvingScheduler scheduler;
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 2;
  const SimResult result =
      run_simulation(EngineKind::kSlot, jobs, scheduler, *selector, options);
  EXPECT_EQ(result.failure, SimFailureKind::kHorizon);
  EXPECT_NE(result.failure_message.find("derived horizon"), std::string::npos)
      << result.failure_message;
  // The job that ran keeps its outcome; the starved one earns nothing.
  EXPECT_TRUE(result.outcomes[0].completed);
  EXPECT_DOUBLE_EQ(result.outcomes[0].completion_time, 1.0);
  EXPECT_DOUBLE_EQ(result.outcomes[0].profit, 2.0);
  EXPECT_FALSE(result.outcomes[1].completed);
  EXPECT_DOUBLE_EQ(result.outcomes[1].profit, 0.0);
  EXPECT_DOUBLE_EQ(result.total_profit, 2.0);
  EXPECT_EQ(result.jobs_completed, 1u);
}

TEST(EdgeCases, ProfitSchedulerSearchCapLeavesJobUnscheduled) {
  // Exponential decay never hits zero, but the search cap bounds the scan;
  // make the early slots inadmissible by saturating them first.
  const ProcCount m = 8;
  auto big = share(make_parallel_block(40, 1.0));
  JobSet jobs;
  // Saturating competitor with huge profit (denser in every window).
  jobs.add(Job(big, 0.0, ProfitFn::plateau_exponential(500.0, 9.0, 1e-6)));
  // Victim with a tiny search budget configured below.
  jobs.add(Job(big, 0.0, ProfitFn::plateau_exponential(1.0, 9.0, 1e-6)));
  jobs.finalize();
  ProfitScheduler scheduler({.params = Params::from_epsilon(0.5),
                             .max_search_slots = 12});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = m;
  run_simulation(EngineKind::kSlot, jobs, scheduler, *selector, options);
  // The rich job is scheduled; whether the victim fits depends on window
  // math -- the invariant under test is that an *unscheduled* job reports
  // an infinite chosen deadline instead of a bogus one.
  ASSERT_GE(scheduler.scheduled_count(), 1u);
  for (JobId j = 0; j < jobs.size(); ++j) {
    if (scheduler.allocation_of(j) != nullptr &&
        scheduler.assigned_slots(j).empty()) {
      EXPECT_EQ(scheduler.chosen_deadline(j), kTimeInfinity);
    }
  }
}

TEST(EdgeCases, DensityIndexSingleMemberWideWindow) {
  DensityWindowIndex index;
  index.insert(7, 1.0, 3);
  EXPECT_DOUBLE_EQ(index.max_window_load(1e9), 3.0);
  EXPECT_DOUBLE_EQ(index.load_at_least(1.0), 3.0);
  // Boundaries are exact (no tolerance): any density above the member's
  // excludes it.
  EXPECT_DOUBLE_EQ(index.load_at_least(1.0 + 1e-12), 0.0);
  EXPECT_DOUBLE_EQ(index.load_at_least(2.0), 0.0);
}

TEST(EdgeCases, AnalyzerOnSingleInstantJob) {
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_single_node(1.0)), 0.0, 1.0, 1.0));
  jobs.finalize();
  const InstanceProfile profile = analyze_instance(jobs, 4);
  EXPECT_EQ(profile.jobs, 1u);
  EXPECT_DOUBLE_EQ(profile.parallelism.median(), 1.0);
  EXPECT_DOUBLE_EQ(profile.sequential_fraction, 1.0);
  EXPECT_DOUBLE_EQ(profile.feasible_fraction, 1.0);
}

TEST(EdgeCases, CheckMacrosFormatMessages) {
  EXPECT_DEATH(
      [] {
        const int x = 3;
        DS_CHECK_MSG(x == 4, "expected " << 4 << " got " << x);
      }(),
      "expected 4 got 3");
}

TEST(EdgeCases, EngineWithJobsReleasedAtSameInstant) {
  // 16 simultaneous releases on 2 processors: engine must serialize them
  // without double-allocating at the shared decision instant.
  JobSet jobs;
  for (int i = 0; i < 16; ++i) {
    jobs.add(Job::with_deadline(share(make_single_node(1.0)), 0.0, 100.0,
                                1.0));
  }
  jobs.finalize();
  // Work-conserving EDF exercises the engine's parallelism; note the paper
  // scheduler would serialize here by design (its b*m window cap on m=2
  // admits one unit job at a time).
  auto scheduler = make_named_scheduler("edf");
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 2;
  const SimResult result =
      run_simulation(EngineKind::kEvent, jobs, *scheduler, *selector, options);
  EXPECT_EQ(result.jobs_completed, 16u);
  EXPECT_NEAR(result.busy_proc_time, 16.0, 1e-9);
  EXPECT_NEAR(result.end_time, 8.0, 1e-9);  // 16 unit jobs over 2 procs
}

}  // namespace
}  // namespace dagsched
