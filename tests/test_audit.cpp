// The admission audit trail: every queue transition is recorded with the
// right reason.
#include <gtest/gtest.h>

#include <memory>

#include "core/deadline_scheduler.h"
#include "dag/generators.h"
#include "sim/event_engine.h"
#include "workload/scenarios.h"

namespace dagsched {
namespace {

std::shared_ptr<const Dag> share(Dag dag) {
  return std::make_shared<const Dag>(std::move(dag));
}

using Action = AuditEvent::Action;

std::vector<Action> actions_for(const DeadlineScheduler& scheduler,
                                JobId job) {
  std::vector<Action> actions;
  for (const AuditEvent& event : scheduler.audit()) {
    if (event.job == job) actions.push_back(event.action);
  }
  return actions;
}

SimResult run(const JobSet& jobs, DeadlineScheduler& scheduler, ProcCount m) {
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = m;
  return simulate(jobs, scheduler, *selector, options);
}

TEST(Audit, DisabledByDefault) {
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_parallel_block(8, 1.0)), 0.0, 10.0,
                              1.0));
  jobs.finalize();
  DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5)});
  run(jobs, scheduler, 8);
  EXPECT_TRUE(scheduler.audit().empty());
}

TEST(Audit, RecordsAdmissionAndRejectionReasons) {
  const ProcCount m = 16;
  const double eps = 0.5;
  Dag d1 = make_parallel_block(30, 1.0);
  const Time slack_dl =
      (1.0 + eps) *
      ((d1.total_work() - d1.span()) / static_cast<double>(m) + d1.span());
  JobSet jobs;
  // Job 0: admitted directly.
  jobs.add(Job::with_deadline(share(std::move(d1)), 0.0, slack_dl, 1.0));
  // Job 1: same shape/deadline, same window -> rejected (window full),
  // never fresh again -> dropped stale.
  jobs.add(Job::with_deadline(share(make_parallel_block(30, 1.0)), 0.0,
                              slack_dl, 1.0));
  // Job 2: deadline below (1+2delta)*L -- no processor count can make it
  // delta-good.
  jobs.add(Job::with_deadline(share(make_parallel_block(30, 1.0)), 0.0,
                              1.2, 1.0));
  // Job 3: long deadline, rejected initially, promoted at completion.
  jobs.add(Job::with_deadline(share(make_parallel_block(30, 1.0)), 0.0,
                              30.0, 1.0));
  jobs.finalize();

  DeadlineScheduler scheduler(
      {.params = Params::from_epsilon(eps), .record_audit = true});
  run(jobs, scheduler, m);

  EXPECT_EQ(actions_for(scheduler, 0),
            std::vector<Action>{Action::kAdmitted});
  {
    const auto job1 = actions_for(scheduler, 1);
    ASSERT_FALSE(job1.empty());
    EXPECT_EQ(job1.front(), Action::kQueuedWindowFull);
    EXPECT_EQ(job1.back(), Action::kDroppedStale);
  }
  {
    const auto job2 = actions_for(scheduler, 2);
    ASSERT_FALSE(job2.empty());
    EXPECT_EQ(job2.front(), Action::kQueuedNotGood);
  }
  {
    const auto job3 = actions_for(scheduler, 3);
    ASSERT_GE(job3.size(), 2u);
    EXPECT_EQ(job3.front(), Action::kQueuedWindowFull);
    EXPECT_EQ(job3.back(), Action::kPromoted);
  }
  // Times are non-decreasing.
  for (std::size_t i = 1; i < scheduler.audit().size(); ++i) {
    EXPECT_GE(scheduler.audit()[i].time, scheduler.audit()[i - 1].time);
  }
}

TEST(Audit, ExpiredInQRecorded) {
  // A job admitted to Q but starved past its deadline by denser later
  // arrivals (the preemption-trap mechanic, without admission protection).
  const ProcCount m = 16;
  JobSet jobs;
  auto dag = share(make_parallel_block(65, 1.0));  // n = 13 at D below
  jobs.add(Job::with_deadline(dag, 0.0, 7.5, 1.0));
  jobs.add(Job::with_deadline(dag, 1.0, 7.5, 10.0));  // denser, steals procs
  jobs.finalize();
  DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5),
                               .enforce_admission = false,
                               .record_audit = true});
  run(jobs, scheduler, m);
  const auto job0 = actions_for(scheduler, 0);
  ASSERT_FALSE(job0.empty());
  EXPECT_EQ(job0.front(), Action::kAdmitted);
  EXPECT_EQ(job0.back(), Action::kExpiredInQ);
}

TEST(Audit, ActionNamesAreStable) {
  EXPECT_STREQ(audit_action_name(Action::kAdmitted), "admitted");
  EXPECT_STREQ(audit_action_name(Action::kQueuedWindowFull),
               "queued:window-full");
  EXPECT_STREQ(audit_action_name(Action::kExpiredInQ), "expired-in-Q");
}

TEST(Audit, EveryArrivedJobHasAFirstEvent) {
  Rng rng(51);
  WorkloadConfig config = scenario_shootout(1.5, 8, 0.3, 1.2);
  config.horizon = 80.0;
  const JobSet jobs = generate_workload(rng, config);
  DeadlineScheduler scheduler(
      {.params = Params::from_epsilon(0.5), .record_audit = true});
  run(jobs, scheduler, 8);
  std::vector<bool> seen(jobs.size(), false);
  for (const AuditEvent& event : scheduler.audit()) {
    seen[event.job] = true;
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(seen[i]) << "job " << i << " has no audit event";
  }
}

}  // namespace
}  // namespace dagsched
