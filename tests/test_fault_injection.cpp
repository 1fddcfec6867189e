// End-to-end fault injection through both engines: deterministic replay,
// cross-engine fault-timeline agreement, machine-model safety (no node on a
// down processor), and work conservation modulo accounted lost work.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "baselines/list_scheduler.h"
#include "core/deadline_scheduler.h"
#include "dag/generators.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "obs/event_log.h"
#include "obs/sink.h"
#include "sim/kernel/engine_factory.h"
#include "sim/node_selector.h"

namespace dagsched {
namespace {

JobSet loose_workload(std::size_t n) {
  // Staggered releases, deadlines loose enough that everything finishes
  // even under churn (the work-conservation tests need full completion).
  JobSet jobs;
  for (std::size_t i = 0; i < n; ++i) {
    auto dag = std::make_shared<const Dag>(
        make_fig1_dag(3, 4, 1.0 + 0.25 * static_cast<double>(i % 3)));
    jobs.add(Job::with_deadline(dag, static_cast<Time>(2 * i), 4000.0, 1.0));
  }
  jobs.finalize();
  return jobs;
}

FaultInjector make_injector(ProcCount m, double mtbf, RestartPolicy restart,
                            bool integral = false, double overrun_prob = 0.0,
                            double overrun_factor = 1.0) {
  FaultPlanConfig config;
  config.seed = 17;
  config.mtbf = mtbf;
  config.mttr = 4.0;
  config.horizon = 80.0;
  config.min_procs = 2;
  config.integral_times = integral;
  config.restart = restart;
  config.overrun_prob = overrun_prob;
  config.overrun_factor = overrun_factor;
  return FaultInjector(build_fault_plan(config, m));
}

SimResult run_event(const JobSet& jobs, const FaultInjector* faults,
                    EventLog* log, bool record_trace = false) {
  ListScheduler scheduler({ListPolicy::kEdf, false});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 4;
  options.record_trace = record_trace;
  options.faults = faults;
  ObsSink sink;
  sink.events = log;
  options.obs = log != nullptr ? &sink : nullptr;
  return run_simulation(EngineKind::kEvent, jobs, scheduler, *selector,
                        options);
}

SimResult run_slot(const JobSet& jobs, const FaultInjector* faults,
                   EventLog* log, bool record_trace = false) {
  ListScheduler scheduler({ListPolicy::kEdf, false});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 4;
  options.record_trace = record_trace;
  options.faults = faults;
  ObsSink sink;
  sink.events = log;
  options.obs = log != nullptr ? &sink : nullptr;
  return run_simulation(EngineKind::kSlot, jobs, scheduler, *selector, options);
}

TEST(FaultInjection, EventEngineReplayIsByteIdentical) {
  const JobSet jobs = loose_workload(10);
  const FaultInjector injector =
      make_injector(4, 12.0, RestartPolicy::kRestartFromZero);
  EventLog log_a, log_b;
  const SimResult a = run_event(jobs, &injector, &log_a);
  const SimResult b = run_event(jobs, &injector, &log_b);
  EXPECT_EQ(a.total_profit, b.total_profit);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.busy_proc_time, b.busy_proc_time);
  EXPECT_EQ(a.lost_work, b.lost_work);
  EXPECT_EQ(log_a.events(), log_b.events());
}

TEST(FaultInjection, SlotEngineReplayIsByteIdentical) {
  const JobSet jobs = loose_workload(10);
  const FaultInjector injector =
      make_injector(4, 12.0, RestartPolicy::kRestartFromZero, true);
  EventLog log_a, log_b;
  const SimResult a = run_slot(jobs, &injector, &log_a);
  const SimResult b = run_slot(jobs, &injector, &log_b);
  EXPECT_EQ(a.total_profit, b.total_profit);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.lost_work, b.lost_work);
  EXPECT_EQ(log_a.events(), log_b.events());
}

std::vector<DecisionEvent> proc_events(const EventLog& log) {
  std::vector<DecisionEvent> out;
  for (const DecisionEvent& event : log.events()) {
    if (event.kind == ObsEventKind::kProcDown ||
        event.kind == ObsEventKind::kProcUp) {
      out.push_back(event);
    }
  }
  return out;
}

TEST(FaultInjection, EnginesSeeTheSameFaultTimeline) {
  // With integral transition times both engines must deliver the identical
  // sequence of proc-down/proc-up events at the identical instants.  The
  // engines reach quiescence at different times (the slot engine is
  // discretized), so the shorter log must be an exact prefix of the longer.
  const JobSet jobs = loose_workload(10);
  const FaultInjector injector =
      make_injector(4, 10.0, RestartPolicy::kResume, true);
  ASSERT_TRUE(injector.has_churn());
  EventLog event_log, slot_log;
  run_event(jobs, &injector, &event_log);
  run_slot(jobs, &injector, &slot_log);
  const auto from_event = proc_events(event_log);
  const auto from_slot = proc_events(slot_log);
  ASSERT_FALSE(from_event.empty());
  ASSERT_FALSE(from_slot.empty());
  const std::size_t common = std::min(from_event.size(), from_slot.size());
  EXPECT_GT(common, from_event.size() / 2);
  for (std::size_t i = 0; i < common; ++i) {
    EXPECT_EQ(from_event[i].time, from_slot[i].time) << "transition " << i;
    EXPECT_EQ(from_event[i].kind, from_slot[i].kind) << "transition " << i;
    EXPECT_EQ(from_event[i].detail_value("proc", -1.0),
              from_slot[i].detail_value("proc", -1.0))
        << "transition " << i;
  }
}

TEST(FaultInjection, NoNodeExecutesOnDownProcessor) {
  const JobSet jobs = loose_workload(12);
  for (const bool slot : {false, true}) {
    const FaultInjector injector =
        make_injector(4, 8.0, RestartPolicy::kResume, slot);
    const SimResult result = slot
                                 ? run_slot(jobs, &injector, nullptr, true)
                                 : run_event(jobs, &injector, nullptr, true);
    ASSERT_FALSE(result.trace.empty());
    for (const TraceInterval& iv : result.trace.intervals()) {
      for (const DownInterval& down : injector.plan().down_intervals()) {
        if (down.proc != iv.proc) continue;
        const bool overlaps =
            iv.start < down.end - 1e-9 && down.begin < iv.end - 1e-9;
        EXPECT_FALSE(overlaps)
            << (slot ? "slot" : "event") << " engine ran J" << iv.job << "/"
            << iv.node << " on proc " << iv.proc << " during [" << iv.start
            << ", " << iv.end << ") but the proc is down over ["
            << down.begin << ", " << down.end << ")";
      }
    }
  }
}

TEST(FaultInjection, WorkConservationModuloLostWork) {
  // Every job completes (loose deadlines), so the processor-time consumed
  // must equal the total declared work plus exactly the work thrown away by
  // restart-from-zero recoveries.
  const JobSet jobs = loose_workload(8);
  const FaultInjector injector =
      make_injector(4, 10.0, RestartPolicy::kRestartFromZero);
  const SimResult result = run_event(jobs, &injector, nullptr);
  ASSERT_EQ(result.jobs_completed, jobs.size());
  Work total = 0.0;
  for (const Job& job : jobs.jobs()) total += job.work();
  EXPECT_NEAR(result.busy_proc_time, total + result.lost_work, 1e-6);
}

TEST(FaultInjection, ResumePolicyLosesNoWork) {
  const JobSet jobs = loose_workload(8);
  const FaultInjector injector =
      make_injector(4, 10.0, RestartPolicy::kResume);
  const SimResult result = run_event(jobs, &injector, nullptr);
  ASSERT_EQ(result.jobs_completed, jobs.size());
  EXPECT_EQ(result.lost_work, 0.0);
  Work total = 0.0;
  for (const Job& job : jobs.jobs()) total += job.work();
  EXPECT_NEAR(result.busy_proc_time, total, 1e-6);
}

TEST(FaultInjection, OverrunConsumesActualWorkButShowsDeclared) {
  JobSet jobs;
  jobs.add(Job::with_deadline(
      std::make_shared<const Dag>(make_chain(1, 10.0)), 0.0, 4000.0, 1.0));
  jobs.finalize();
  FaultPlanConfig config;
  config.seed = 9;
  config.overrun_prob = 1.0;
  config.overrun_factor = 2.0;
  const FaultInjector injector(build_fault_plan(config, 4));
  const double mult = injector.plan().work_multiplier(0, 0);
  ASSERT_GT(mult, 1.0);
  const SimResult result = run_event(jobs, &injector, nullptr);
  ASSERT_EQ(result.jobs_completed, 1u);
  EXPECT_NEAR(result.busy_proc_time, 10.0 * mult, 1e-9);
}

TEST(FaultInjection, QuietInjectorMatchesNoInjector) {
  // min_procs = m swallows every candidate failure and overruns are off, so
  // an attached injector with nothing to inject must not perturb the run.
  const JobSet jobs = loose_workload(10);
  FaultPlanConfig config;
  config.seed = 17;
  config.mtbf = 10.0;
  config.mttr = 4.0;
  config.horizon = 80.0;
  config.min_procs = 4;
  const FaultInjector injector(build_fault_plan(config, 4));
  ASSERT_FALSE(injector.has_churn());
  const SimResult with = run_event(jobs, &injector, nullptr);
  const SimResult without = run_event(jobs, nullptr, nullptr);
  EXPECT_EQ(with.total_profit, without.total_profit);
  EXPECT_EQ(with.decisions, without.decisions);
  EXPECT_EQ(with.busy_proc_time, without.busy_proc_time);
  EXPECT_EQ(with.jobs_completed, without.jobs_completed);
}

TEST(FaultInjection, RestartEventsCarryLostWork) {
  const JobSet jobs = loose_workload(12);
  const FaultInjector injector =
      make_injector(4, 6.0, RestartPolicy::kRestartFromZero);
  EventLog log;
  const SimResult result = run_event(jobs, &injector, &log);
  Work event_lost = 0.0;
  std::size_t downs = 0;
  for (const DecisionEvent& event : log.events()) {
    if (event.kind == ObsEventKind::kNodeRestart) {
      event_lost += event.detail_value("lost");
    }
    if (event.kind == ObsEventKind::kProcDown) ++downs;
  }
  EXPECT_GT(downs, 0u);
  EXPECT_NEAR(event_lost, result.lost_work, 1e-9);
}

TEST(FaultInjection, DeadlineSchedulerShrinkReAdmits) {
  // The paper-S scheduler must survive shrinks: re-run condition (2) and
  // keep running.  We only require the run to terminate cleanly and stay
  // deterministic; policy details are covered by the scheduler unit tests.
  const JobSet jobs = loose_workload(12);
  const FaultInjector injector =
      make_injector(4, 8.0, RestartPolicy::kRestartFromZero);
  DeadlineScheduler scheduler(
      DeadlineSchedulerOptions{.params = Params::from_epsilon(0.5)});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 4;
  options.faults = &injector;
  const SimResult result =
      run_simulation(EngineKind::kEvent, jobs, scheduler, *selector, options);
  EXPECT_FALSE(result.failed());
  EXPECT_GT(result.jobs_completed, 0u);
}

}  // namespace
}  // namespace dagsched
