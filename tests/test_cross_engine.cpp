// Cross-validation: on integer workloads (unit node works, integer releases
// and deadlines, speed 1) event steps and unit slots must produce
// identical schedules for job-level schedulers -- the continuous engine is
// then an exact accelerated implementation of the paper's time-step model.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/list_scheduler.h"
#include "core/deadline_scheduler.h"
#include "dag/generators.h"
#include "exp/runner.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "job/job.h"
#include "obs/event_log.h"
#include "obs/sink.h"
#include "obs/trace_export.h"
#include "sim/kernel/engine_factory.h"
#include "util/rng.h"

namespace dagsched {
namespace {

JobSet integer_workload(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  JobSet jobs;
  for (std::size_t i = 0; i < count; ++i) {
    RandomDagParams params;
    params.nodes = static_cast<std::size_t>(rng.uniform_int(4, 16));
    params.edge_prob = 0.15;
    params.work = WorkDist::constant(1.0);
    Dag dag = make_random_dag(rng, params);
    const double release = static_cast<double>(rng.uniform_int(0, 40));
    // Integer deadline with comfortable slack.
    const double greedy =
        (dag.total_work() - dag.span()) / 4.0 + dag.span();
    const double deadline =
        std::ceil(greedy * rng.uniform(1.5, 3.0)) + 2.0;
    jobs.add(Job::with_deadline(std::make_shared<const Dag>(std::move(dag)),
                                release, deadline,
                                std::floor(rng.uniform(1.0, 10.0))));
  }
  jobs.finalize();
  return jobs;
}

class CrossEngine : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossEngine, EdfSchedulesIdentically) {
  const JobSet jobs = integer_workload(GetParam(), 14);
  ListScheduler s1({ListPolicy::kEdf, false});
  ListScheduler s2({ListPolicy::kEdf, false});
  auto sel1 = make_selector(SelectorKind::kFifo);
  auto sel2 = make_selector(SelectorKind::kFifo);

  SimOptions options;
  options.num_procs = 4;
  const SimResult ev =
      run_simulation(EngineKind::kEvent, jobs, s1, *sel1, options);

  const SimResult slot =
      run_simulation(EngineKind::kSlot, jobs, s2, *sel2, options);

  ASSERT_EQ(ev.outcomes.size(), slot.outcomes.size());
  for (std::size_t i = 0; i < ev.outcomes.size(); ++i) {
    EXPECT_EQ(ev.outcomes[i].completed, slot.outcomes[i].completed)
        << "job " << i;
    if (ev.outcomes[i].completed && slot.outcomes[i].completed) {
      EXPECT_NEAR(ev.outcomes[i].completion_time,
                  slot.outcomes[i].completion_time, 1e-6)
          << "job " << i;
    }
  }
  EXPECT_NEAR(ev.total_profit, slot.total_profit, 1e-6);
}

TEST_P(CrossEngine, PaperSchedulerSchedulesIdentically) {
  const JobSet jobs = integer_workload(GetParam() ^ 0x5555, 12);
  DeadlineScheduler s1({.params = Params::from_epsilon(0.5)});
  DeadlineScheduler s2({.params = Params::from_epsilon(0.5)});
  auto sel1 = make_selector(SelectorKind::kFifo);
  auto sel2 = make_selector(SelectorKind::kFifo);

  SimOptions options;
  options.num_procs = 4;
  const SimResult ev =
      run_simulation(EngineKind::kEvent, jobs, s1, *sel1, options);

  const SimResult slot =
      run_simulation(EngineKind::kSlot, jobs, s2, *sel2, options);

  for (std::size_t i = 0; i < ev.outcomes.size(); ++i) {
    EXPECT_EQ(ev.outcomes[i].completed, slot.outcomes[i].completed)
        << "job " << i;
    if (ev.outcomes[i].completed && slot.outcomes[i].completed) {
      EXPECT_NEAR(ev.outcomes[i].completion_time,
                  slot.outcomes[i].completion_time, 1e-6)
          << "job " << i;
    }
  }
  EXPECT_NEAR(ev.total_profit, slot.total_profit, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossEngine,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ---------------------------------------------------------------------------
// Full parity matrix: every registered scheduler x every fault mode
// ---------------------------------------------------------------------------

enum class FaultMode { kNone, kChurnResume, kChurnZero };

const char* fault_mode_name(FaultMode mode) {
  switch (mode) {
    case FaultMode::kNone: return "none";
    case FaultMode::kChurnResume: return "churn-resume";
    case FaultMode::kChurnZero: return "churn-zero";
  }
  return "?";
}

std::optional<FaultInjector> matrix_injector(FaultMode mode, ProcCount m) {
  if (mode == FaultMode::kNone) return std::nullopt;
  FaultPlanConfig config;
  config.seed = 23;
  config.mtbf = 25.0;
  config.mttr = 4.0;
  config.horizon = 300.0;
  config.min_procs = 2;
  // Integral transition times keep churn slot-aligned, a precondition for
  // slot/event equivalence (mid-slot capacity changes have no slot-engine
  // representation).
  config.integral_times = true;
  config.restart = mode == FaultMode::kChurnZero
                       ? RestartPolicy::kRestartFromZero
                       : RestartPolicy::kResume;
  return FaultInjector(build_fault_plan(config, m));
}

SimResult run_matrix_cell(EngineKind kind, const JobSet& jobs,
                          const std::string& scheduler_name,
                          const FaultInjector* faults, EventLog* log) {
  auto scheduler = make_named_scheduler(scheduler_name, 0.5);
  auto selector = make_selector(SelectorKind::kFifo);
  ObsSink sink;
  sink.events = log;
  SimOptions options;
  options.num_procs = 4;
  options.obs = &sink;
  options.faults = faults;
  return run_simulation(kind, jobs, *scheduler, *selector, options);
}

TEST(CrossEngineMatrix, AllSchedulersAllFaultModesDecideIdentically) {
  // Every scheduler the registry knows (minus the slot-only "profit"), with
  // no faults, resume-churn, and restart-from-zero churn: both stepping
  // drivers over the shared kernel must emit the identical policy-decision
  // sequence (admit/defer/drop/schedule by kind, job, reason).
  const JobSet jobs = integer_workload(97, 12);
  for (const std::string& name : named_scheduler_list()) {
    if (name == "profit") continue;  // slot-engine only by contract
    for (const FaultMode mode :
         {FaultMode::kNone, FaultMode::kChurnResume, FaultMode::kChurnZero}) {
      const std::optional<FaultInjector> injector = matrix_injector(mode, 4);
      const FaultInjector* faults = injector ? &*injector : nullptr;
      EventLog ev_log;
      EventLog slot_log;
      const SimResult ev =
          run_matrix_cell(EngineKind::kEvent, jobs, name, faults, &ev_log);
      const SimResult slot =
          run_matrix_cell(EngineKind::kSlot, jobs, name, faults, &slot_log);
      const std::string label =
          name + " / " + fault_mode_name(mode);

      EventLogDiffOptions diff_options;
      diff_options.decisions_only = true;
      const EventLogDiff diff =
          diff_event_logs(ev_log.events(), slot_log.events(), diff_options);
      EXPECT_TRUE(diff.identical())
          << label << ": "
          << format_event_log_diff(diff, "event", "slot");

      ASSERT_EQ(ev.outcomes.size(), slot.outcomes.size()) << label;
      for (std::size_t i = 0; i < ev.outcomes.size(); ++i) {
        EXPECT_EQ(ev.outcomes[i].completed, slot.outcomes[i].completed)
            << label << " job " << i;
      }
      EXPECT_NEAR(ev.total_profit, slot.total_profit, 1e-6) << label;
    }
  }
}

// ---------------------------------------------------------------------------
// Pinned tie-break order at a decision point
// ---------------------------------------------------------------------------

TEST(CrossEngineMatrix, SimultaneousEventOrderIsPinned) {
  // At one decision point the kernel must deliver: completions of the
  // previous step, then fault transitions (recoveries before failures),
  // then arrivals (by release, then job id), then deadline expiries (by
  // deadline, then job id) -- on both engines.  This pins the tie-break
  // contract of sim/kernel/kernel.cpp's deliver_due_events().
  auto share = [](Dag dag) {
    return std::make_shared<const Dag>(std::move(dag));
  };
  JobSet jobs;
  // Jobs 0..2 arrive together at t=0; jobs 1 and 2 have deadlines that
  // expire simultaneously at t=2 (too tight to finish: work 4, span 4).
  jobs.add(Job::with_deadline(share(make_single_node(1.0)), 0.0, 50.0, 1.0));
  jobs.add(Job::with_deadline(share(make_chain(4, 1.0)), 0.0, 2.0, 1.0));
  jobs.add(Job::with_deadline(share(make_chain(4, 1.0)), 0.0, 2.0, 1.0));
  // Job 3 arrives exactly at the expiry instant t=2.
  jobs.add(Job::with_deadline(share(make_single_node(1.0)), 2.0, 60.0, 1.0));
  jobs.finalize();

  for (const EngineKind kind : {EngineKind::kEvent, EngineKind::kSlot}) {
    EventLog log;
    run_matrix_cell(kind, jobs, "edf", nullptr, &log);
    // Project the log onto the kinds whose relative order we pin.
    std::vector<std::pair<ObsEventKind, JobId>> sequence;
    for (const DecisionEvent& event : log.events()) {
      if (event.kind == ObsEventKind::kArrival ||
          event.kind == ObsEventKind::kExpire) {
        sequence.emplace_back(event.kind, event.job);
      }
    }
    const std::vector<std::pair<ObsEventKind, JobId>> expected = {
        // t=0: simultaneous arrivals in job-id order.
        {ObsEventKind::kArrival, 0},
        {ObsEventKind::kArrival, 1},
        {ObsEventKind::kArrival, 2},
        // t=2: the arrival precedes the simultaneous expiries, which land
        // in job-id order.
        {ObsEventKind::kArrival, 3},
        {ObsEventKind::kExpire, 1},
        {ObsEventKind::kExpire, 2},
    };
    ASSERT_EQ(sequence.size(), expected.size()) << engine_kind_name(kind);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(sequence[i].first, expected[i].first)
          << engine_kind_name(kind) << " position " << i;
      EXPECT_EQ(sequence[i].second, expected[i].second)
          << engine_kind_name(kind) << " position " << i;
    }
  }
}

}  // namespace
}  // namespace dagsched
