// Job retirement: the kernel's active set holds exactly the jobs that can
// still earn their profit -- arrived, not completed, and not
// deadline_unreachable(now), the oracle below -- at every decision, on both
// engines, for every named scheduler, with and without processor churn.
// The schedulers rely on it: EQUI and LLF iterate ctx.active_jobs() and the
// list baselines read JobView::live(), with no dead-job filter of their own.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dag/builder.h"
#include "dag/generators.h"
#include "dag/unfolding.h"
#include "exp/runner.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "forwarding_scheduler.h"
#include "obs/event_log.h"
#include "obs/sink.h"
#include "sim/kernel/engine_factory.h"
#include "sim/views.h"
#include "util/arena.h"
#include "util/check.h"
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

/// Restart-from-zero processor churn on kM processors.
FaultPlan churn_zero_plan() {
  std::string error;
  const auto config = parse_fault_spec(
      "mtbf=30,mttr=5,horizon=80,seed=3,integral=1,restart=zero", &error);
  DS_CHECK_MSG(config.has_value(), error);
  return build_fault_plan(*config, kM);
}

/// "<scheduler>_<engine>_<none|churn_zero>", with '-' spelled '_'.
std::string contract_param_name(
    const ::testing::TestParamInfo<std::tuple<std::string, EngineKind, bool>>&
        param_info) {
  std::string name = std::get<0>(param_info.param);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  name += std::get<1>(param_info.param) == EngineKind::kEvent ? "_event"
                                                              : "_slot";
  return name + (std::get<2>(param_info.param) ? "_churn_zero" : "_none");
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
  if (churn) injector.emplace(churn_zero_plan());

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
    contract_param_name);

// No per-node state before a job's first run: the kernel builds a job's
// unfolding the first time it allocates the job processors.  Until then
// JobView's ready count is the DAG's source count, and the clairvoyant
// remaining span comes from the DAG, bit for bit what a fresh unfolding
// computes.  Same matrix as RetirementContract; the scheduler is wrapped in
// a ForwardingScheduler only so the observer may read unfoldings.
class UnfoldingOnFirstRun
    : public ::testing::TestWithParam<
          std::tuple<std::string, EngineKind, bool>> {};

TEST_P(UnfoldingOnFirstRun, ArrivedJobHoldsOneExactlyOnceAllocated) {
  const auto& [name, engine, churn] = GetParam();
  if (!scheduler_engine_error(name, engine).empty()) {
    GTEST_SKIP() << scheduler_engine_error(name, engine);
  }
  const JobSet jobs = overloaded_jobs();
  std::optional<FaultInjector> injector;
  if (churn) injector.emplace(churn_zero_plan());

  // A job's remaining span cannot change before it runs.
  std::vector<std::uint64_t> fresh_span(jobs.size());
  for (JobId id = 0; id < jobs.size(); ++id) {
    BumpArena arena;
    fresh_span[id] = std::bit_cast<std::uint64_t>(
        UnfoldingState(jobs[id].dag(), arena).remaining_span());
  }

  std::vector<char> allocated(jobs.size(), 0);
  std::size_t decisions = 0;
  std::size_t built = 0;      // arrived jobs seen after their first run
  std::size_t unbuilt = 0;    // ... and before it
  std::size_t engaged_mismatch = 0;
  std::size_t ready_mismatch = 0;
  std::size_t span_mismatch = 0;
  SimOptions options;
  options.num_procs = kM;
  options.faults = injector ? &*injector : nullptr;
  options.observer = [&](const EngineContext& ctx,
                         const Assignment& assignment) {
    ++decisions;
    for (JobId id = 0; id < ctx.num_jobs(); ++id) {
      const JobView view = ctx.view(id);
      if (!view.arrived()) continue;
      const bool ran = allocated[id] != 0;
      engaged_mismatch += (ctx.unfolding_of(id) != nullptr) != ran ? 1u : 0u;
      if (ran) {
        ++built;
        continue;
      }
      ++unbuilt;
      ready_mismatch +=
          view.ready_count() != jobs[id].dag().sources().size() ? 1u : 0u;
      span_mismatch += std::bit_cast<std::uint64_t>(ctx.remaining_span(id)) !=
                               fresh_span[id]
                           ? 1u
                           : 0u;
    }
    for (const JobAlloc& alloc : assignment.allocs) allocated[alloc.job] = 1;
  };
  auto inner = make_named_scheduler(name, 0.5);
  ForwardingScheduler scheduler(*inner);
  auto selector = make_selector(SelectorKind::kFifo, 1);
  const SimResult result =
      run_simulation(engine, jobs, scheduler, *selector, options);
  EXPECT_FALSE(result.failed()) << result.failure_message;
  EXPECT_EQ(decisions, result.decisions);
  EXPECT_EQ(engaged_mismatch, 0u);
  EXPECT_EQ(ready_mismatch, 0u);
  EXPECT_EQ(span_mismatch, 0u);
  // Not vacuous: both kinds of arrived job were seen.
  EXPECT_GT(built, 0u);
  EXPECT_GT(unbuilt, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, UnfoldingOnFirstRun,
                         ::testing::Combine(
                             ::testing::ValuesIn(named_scheduler_list()),
                             ::testing::Values(EngineKind::kEvent,
                                               EngineKind::kSlot),
                             ::testing::Bool()),
                         contract_param_name);

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
