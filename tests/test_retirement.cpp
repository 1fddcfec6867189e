// Job retirement: the kernel's active set holds exactly the jobs that can
// still earn their profit -- arrived, not completed, and not
// deadline_unreachable(now), the oracle below -- at every decision, on both
// engines, for every named scheduler, with and without processor churn.
// The schedulers rely on it: EQUI and LLF iterate ctx.active_jobs() and the
// list baselines read JobView::live(), with no dead-job filter of their own.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dag/builder.h"
#include "dag/generators.h"
#include "exp/runner.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "obs/event_log.h"
#include "obs/sink.h"
#include "sim/kernel/engine_factory.h"
#include "sim/views.h"
#include "util/float_cmp.h"
#include "util/rng.h"
#include "workload/scenarios.h"

namespace dagsched {
namespace {

constexpr ProcCount kM = 4;

/// The retirement rule, written out: a job can no longer earn its profit
/// once now >= d, since any remaining work pushes completion strictly past
/// the deadline.
bool deadline_unreachable(const JobView& view, Time now) {
  return view.has_deadline() && !view.completed() &&
         approx_ge(now, view.absolute_deadline());
}

TEST(Retirement, DeadlineUnreachableBoundarySemantics) {
  JobSet jobs;
  jobs.add(Job::with_deadline(
      std::make_shared<const Dag>(make_single_node(2.0)), 1.0, 4.0, 1.0));
  jobs.finalize();
  JobStateTable state;
  state.reset(jobs);
  state.set_arrived(0);
  const JobView view(&jobs[0], &state, 0);
  // d = 5.  Strictly before: reachable.  At d: unreachable (remaining work
  // cannot finish by d).
  EXPECT_FALSE(deadline_unreachable(view, 4.999));
  EXPECT_TRUE(deadline_unreachable(view, 5.0));
  EXPECT_TRUE(deadline_unreachable(view, 5.001));
}

/// Overloaded shootout instance: continuous releases and deadlines, so the
/// slot engine expires many jobs at a slot before their deadline instant.
JobSet overloaded_jobs() {
  Rng rng(21);
  WorkloadConfig config = scenario_shootout(1.6, kM, 0.3, 1.2);
  config.horizon = 80.0;
  return generate_workload(rng, config);
}

class RetirementContract
    : public ::testing::TestWithParam<
          std::tuple<std::string, EngineKind, bool>> {};

TEST_P(RetirementContract, ActiveSetIsExactlyTheJobsThatCanStillEarn) {
  const auto& [name, engine, churn] = GetParam();
  if (!scheduler_engine_error(name, engine).empty()) {
    GTEST_SKIP() << scheduler_engine_error(name, engine);
  }
  const JobSet jobs = overloaded_jobs();
  std::optional<FaultInjector> injector;
  if (churn) {
    std::string error;
    const auto config = parse_fault_spec(
        "mtbf=30,mttr=5,horizon=80,seed=3,integral=1,restart=zero", &error);
    ASSERT_TRUE(config.has_value()) << error;
    injector.emplace(build_fault_plan(*config, kM));
  }

  std::size_t decisions = 0;
  std::size_t with_dead = 0;      // decisions with an arrived, dead job
  std::size_t with_expired = 0;   // ... with an expired job still live
  std::size_t mismatches = 0;
  std::size_t live_mismatch = 0;  // JobView::live() disagreeing with it
  std::string first_mismatch;
  SimOptions options;
  options.num_procs = kM;
  options.faults = injector ? &*injector : nullptr;
  options.observer = [&](const EngineContext& ctx, const Assignment&) {
    ++decisions;
    std::vector<JobId> expected;
    bool dead = false;
    bool expired = false;
    for (JobId id = 0; id < ctx.num_jobs(); ++id) {
      const JobView view = ctx.view(id);
      if (!view.arrived() || view.completed()) {
        live_mismatch += view.live() ? 1u : 0u;
        continue;
      }
      const bool unreachable = deadline_unreachable(view, ctx.now());
      live_mismatch += view.live() == unreachable ? 1u : 0u;
      if (unreachable) {
        dead = true;
        continue;
      }
      expired |= view.has_deadline() &&
                 ctx.now() + 1.0 > view.absolute_deadline();
      expected.push_back(id);
    }
    with_dead += dead ? 1 : 0;
    with_expired += expired ? 1 : 0;
    const ActiveJobs active = ctx.active_jobs();
    std::vector<JobId> actual;
    for (const JobId id : active) actual.push_back(id);
    if (actual != expected || active.size() != expected.size()) {
      if (mismatches++ == 0) {
        first_mismatch = "t=" + std::to_string(ctx.now()) + ": " +
                         std::to_string(actual.size()) + " active, " +
                         std::to_string(expected.size()) + " expected";
      }
    }
  };
  auto scheduler = make_named_scheduler(name, 0.5);
  auto selector = make_selector(SelectorKind::kFifo, 1);
  const SimResult result =
      run_simulation(engine, jobs, *scheduler, *selector, options);
  EXPECT_FALSE(result.failed()) << result.failure_message;
  EXPECT_EQ(mismatches, 0u) << first_mismatch;
  EXPECT_EQ(live_mismatch, 0u);
  EXPECT_EQ(decisions, result.decisions);
  // Not vacuous: dead jobs were among the arrived, incomplete ones.
  EXPECT_GT(with_dead, 0u);
  if (engine == EngineKind::kSlot) {
    EXPECT_GT(with_expired, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, RetirementContract,
    ::testing::Combine(::testing::ValuesIn(named_scheduler_list()),
                       ::testing::Values(EngineKind::kEvent,
                                         EngineKind::kSlot),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<
        std::tuple<std::string, EngineKind, bool>>& param_info) {
      std::string name = std::get<0>(param_info.param);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      name += std::get<1>(param_info.param) == EngineKind::kEvent ? "_event"
                                                                  : "_slot";
      return name + (std::get<2>(param_info.param) ? "_churn_zero" : "_none");
    });

TEST(Retirement, SlotEngineRunsAFractionalDeadlineJobInItsExpirySlot) {
  // `profit step 1 1.5`, a chain of nodes with works 1 and 0.3, m = 1.  The
  // slot engine expires d = 1.5 at slot 1 (1 + 1 > 1.5), but the job is
  // still reachable there: it stays active, runs its 0.3 node, completes
  // at 1.3 <= d and earns its profit (reported at the end of the slot).
  DagBuilder builder;
  const NodeId first = builder.add_node(1.0);
  const NodeId second = builder.add_node(0.3);
  builder.add_edge(first, second);
  JobSet jobs;
  jobs.add(Job::with_deadline(
      std::make_shared<const Dag>(std::move(builder).build()), 0.0, 1.5,
      1.0));
  jobs.finalize();

  for (const char* name : {"equi", "llf", "edf"}) {
    EventLog log;
    ObsSink sink;
    sink.events = &log;
    std::vector<std::size_t> active_sizes;
    SimOptions options;
    options.num_procs = 1;
    options.obs = &sink;
    options.observer = [&active_sizes](const EngineContext& ctx,
                                       const Assignment&) {
      active_sizes.push_back(ctx.active_jobs().size());
    };
    auto scheduler = make_named_scheduler(name, 0.5);
    auto selector = make_selector(SelectorKind::kFifo, 1);
    const SimResult result = run_simulation(EngineKind::kSlot, jobs,
                                            *scheduler, *selector, options);

    std::vector<std::pair<ObsEventKind, Time>> lifecycle;
    for (const DecisionEvent& event : log.events()) {
      if (event.kind == ObsEventKind::kExpire ||
          event.kind == ObsEventKind::kComplete) {
        lifecycle.emplace_back(event.kind, event.time);
      }
    }
    const std::vector<std::pair<ObsEventKind, Time>> expected = {
        {ObsEventKind::kExpire, 1.0}, {ObsEventKind::kComplete, 2.0}};
    EXPECT_EQ(lifecycle, expected) << name;
    EXPECT_EQ(active_sizes, (std::vector<std::size_t>{1, 1})) << name;
    EXPECT_EQ(result.jobs_completed, 1u) << name;
    EXPECT_EQ(result.total_profit, 1.0) << name;
  }
}

}  // namespace
}  // namespace dagsched
