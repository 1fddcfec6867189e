// The admission audit: scheduler S's queue transitions, read from the
// decision log, each carrying the right reason.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/deadline_scheduler.h"
#include "dag/generators.h"
#include "obs/sink.h"
#include "sim/event_engine.h"
#include "workload/scenarios.h"

namespace dagsched {
namespace {

std::shared_ptr<const Dag> share(Dag dag) {
  return std::make_shared<const Dag>(std::move(dag));
}

/// The job's S transitions, by audit name, in log order.
std::vector<std::string> transitions_for(const EventLog& log, JobId job) {
  std::vector<std::string> names;
  for (const DecisionEvent& event : log.events()) {
    const char* name = admission_transition_name(event);
    if (name != nullptr && event.job == job) names.emplace_back(name);
  }
  return names;
}

EventLog run(const JobSet& jobs, DeadlineScheduler& scheduler, ProcCount m) {
  auto selector = make_selector(SelectorKind::kFifo);
  EventLog log;
  ObsSink sink;
  sink.events = &log;
  SimOptions options;
  options.num_procs = m;
  options.obs = &sink;
  simulate(jobs, scheduler, *selector, options);
  return log;
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

  DeadlineScheduler scheduler({.params = Params::from_epsilon(eps)});
  const EventLog log = run(jobs, scheduler, m);

  EXPECT_EQ(transitions_for(log, 0), std::vector<std::string>{"admitted"});
  {
    const auto job1 = transitions_for(log, 1);
    ASSERT_FALSE(job1.empty());
    EXPECT_EQ(job1.front(), "queued:window-full");
    EXPECT_EQ(job1.back(), "dropped:stale");
  }
  {
    const auto job2 = transitions_for(log, 2);
    ASSERT_FALSE(job2.empty());
    EXPECT_EQ(job2.front(), "queued:not-delta-good");
  }
  {
    const auto job3 = transitions_for(log, 3);
    ASSERT_GE(job3.size(), 2u);
    EXPECT_EQ(job3.front(), "queued:window-full");
    EXPECT_EQ(job3.back(), "promoted");
  }
  // Times are non-decreasing.
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_GE(log.events()[i].time, log.events()[i - 1].time);
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
                               .enforce_admission = false});
  const auto job0 = transitions_for(run(jobs, scheduler, m), 0);
  ASSERT_FALSE(job0.empty());
  EXPECT_EQ(job0.front(), "admitted");
  EXPECT_EQ(job0.back(), "expired-in-Q");
}

TEST(Audit, ActionNamesAreStable) {
  auto name = [](ObsEventKind kind, const char* reason) {
    DecisionEvent event;
    event.kind = kind;
    event.reason = reason;
    const char* audit = admission_transition_name(event);
    return audit == nullptr ? std::string("<none>") : std::string(audit);
  };
  EXPECT_EQ(name(ObsEventKind::kAdmit, "cond2-ok"), "admitted");
  EXPECT_EQ(name(ObsEventKind::kDefer, "not-delta-good"),
            "queued:not-delta-good");
  EXPECT_EQ(name(ObsEventKind::kDefer, "window-full"), "queued:window-full");
  EXPECT_EQ(name(ObsEventKind::kAdmit, "promoted"), "promoted");
  EXPECT_EQ(name(ObsEventKind::kDrop, "stale"), "dropped:stale");
  EXPECT_EQ(name(ObsEventKind::kDrop, "expired-in-q"), "expired-in-Q");
  // Other events -- including S's own overload sheds and capacity-shrink
  // evictions -- are not admission transitions.
  EXPECT_EQ(name(ObsEventKind::kDrop, "overload.shed.waiting"), "<none>");
  EXPECT_EQ(name(ObsEventKind::kReadmitFail, "stale"), "<none>");
  EXPECT_EQ(name(ObsEventKind::kArrival, ""), "<none>");
}

TEST(Audit, EveryArrivedJobHasAFirstEvent) {
  Rng rng(51);
  WorkloadConfig config = scenario_shootout(1.5, 8, 0.3, 1.2);
  config.horizon = 80.0;
  const JobSet jobs = generate_workload(rng, config);
  DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5)});
  const EventLog log = run(jobs, scheduler, 8);
  std::vector<bool> seen(jobs.size(), false);
  for (const DecisionEvent& event : log.events()) {
    if (admission_transition_name(event) != nullptr) seen[event.job] = true;
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(seen[i]) << "job " << i << " has no audit event";
  }
}

}  // namespace
}  // namespace dagsched
