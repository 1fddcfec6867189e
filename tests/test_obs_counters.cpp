// Counter/histogram registry semantics: register-on-first-use, accumulate,
// name-sorted snapshots, engine-integrated counter agreement (idle time
// across both engines), and the event-derived counters: every sched.* and
// fault.* transition counter equals a tally of the decision log.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/list_scheduler.h"
#include "dag/generators.h"
#include "exp/runner.h"
#include "fault/injector.h"
#include "job/job.h"
#include "obs/counters.h"
#include "obs/event_log.h"
#include "obs/sink.h"
#include "sim/event_engine.h"
#include "sim/kernel/engine_factory.h"
#include "sim/slot_engine.h"
#include "workload/scenarios.h"

namespace dagsched {
namespace {

TEST(Counter, Accumulates) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0.0);
  counter.add();
  counter.add(2.5);
  EXPECT_DOUBLE_EQ(counter.value(), 3.5);
}

TEST(Histogram, TracksStreamingStats) {
  Histogram hist;
  hist.observe(1.0);
  hist.observe(4.0);
  hist.observe(0.25);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_DOUBLE_EQ(hist.sum(), 5.25);
  EXPECT_DOUBLE_EQ(hist.min(), 0.25);
  EXPECT_DOUBLE_EQ(hist.max(), 4.0);
  EXPECT_DOUBLE_EQ(hist.mean(), 1.75);
  EXPECT_EQ(Histogram().mean(), 0.0);
}

TEST(Histogram, BucketsArePowerOfTwo) {
  EXPECT_DOUBLE_EQ(Histogram::bucket_lower_bound(Histogram::kBucketBias),
                   1.0);
  EXPECT_DOUBLE_EQ(Histogram::bucket_lower_bound(Histogram::kBucketBias + 1),
                   2.0);
  Histogram hist;
  hist.observe(1.5);  // bucket covering [1, 2)
  hist.observe(3.0);  // bucket covering [2, 4)
  hist.observe(-7.0);  // non-positive values land in bucket 0
  EXPECT_EQ(hist.buckets()[Histogram::kBucketBias], 1u);
  EXPECT_EQ(hist.buckets()[Histogram::kBucketBias + 1], 1u);
  EXPECT_EQ(hist.buckets()[0], 1u);
}

TEST(MetricRegistry, RegisterOnFirstUseReturnsStablePointer) {
  MetricRegistry registry;
  Counter* a = registry.counter("x");
  Counter* again = registry.counter("x");
  EXPECT_EQ(a, again);
  a->add(2.0);
  ASSERT_EQ(registry.counter_values().size(), 1u);
  EXPECT_DOUBLE_EQ(registry.counter_values().front().second, 2.0);
  // A different instrument family with the same name is distinct.
  Histogram* h = registry.histogram("x");
  EXPECT_NE(static_cast<void*>(a), static_cast<void*>(h));
  EXPECT_EQ(registry.counter_values().size(), 1u);
  EXPECT_EQ(registry.histogram_values().size(), 1u);
}

TEST(MetricRegistry, SnapshotsAreNameSorted) {
  MetricRegistry registry;
  registry.counter("zeta")->add(1.0);
  registry.counter("alpha")->add(2.0);
  registry.counter("mid")->add(3.0);
  const auto values = registry.counter_values();
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0].first, "alpha");
  EXPECT_EQ(values[1].first, "mid");
  EXPECT_EQ(values[2].first, "zeta");
}

/// Sparse integral workload: short chain jobs separated by long fully-idle
/// gaps, so the slot engine's idle-skip fast path and the event engine's
/// quiescent jump are both exercised.  Every job completes, so both engines
/// halt at the same end time.
JobSet sparse_workload() {
  JobSet jobs;
  for (const double release : {0.0, 10.0, 25.0}) {
    jobs.add(Job::with_deadline(
        std::make_shared<const Dag>(make_chain(3, 1.0)), release,
        release + 8.0, 1.0));
  }
  jobs.finalize();
  return jobs;
}

double run_idle_counter(const JobSet& jobs, bool slot, ProcCount m,
                        double* busy, double* end_time) {
  MetricRegistry registry;
  ObsSink sink;
  sink.metrics = &registry;
  ListScheduler scheduler({ListPolicy::kEdf, false});
  auto selector = make_selector(SelectorKind::kFifo);
  SimResult result;
  if (slot) {
    SimOptions options;
    options.num_procs = m;
    options.obs = &sink;
    SlotEngine engine(jobs, scheduler, *selector, options);
    result = engine.run();
  } else {
    SimOptions options;
    options.num_procs = m;
    options.obs = &sink;
    EventEngine engine(jobs, scheduler, *selector, options);
    result = engine.run();
  }
  EXPECT_EQ(result.jobs_completed, jobs.size());
  *busy = result.busy_proc_time;
  *end_time = result.end_time;
  return registry.counter("engine.idle_proc_time")->value();
}

TEST(EngineCounters, IdleTimeAgreesAcrossEnginesOnSparseWorkloads) {
  // Fully-idle stretches (nothing released, nothing running) used to be
  // invisible to the slot engine's idle counter because the idle-skip jump
  // bypassed per-slot accounting; the event engine's quiescent jump had the
  // same blind spot.  Both must now account skipped spans, making
  // busy + idle == m * end_time and the two engines agree exactly.
  const JobSet jobs = sparse_workload();
  const ProcCount m = 4;

  double ev_busy = 0.0, ev_end = 0.0, slot_busy = 0.0, slot_end = 0.0;
  const double ev_idle =
      run_idle_counter(jobs, /*slot=*/false, m, &ev_busy, &ev_end);
  const double slot_idle =
      run_idle_counter(jobs, /*slot=*/true, m, &slot_busy, &slot_end);

  // Sanity: the workload is genuinely sparse -- most machine time is idle.
  ASSERT_GT(ev_idle, ev_busy);

  EXPECT_NEAR(ev_idle, slot_idle, 1e-9);
  EXPECT_NEAR(ev_busy + ev_idle, static_cast<double>(m) * ev_end, 1e-9);
  EXPECT_NEAR(slot_busy + slot_idle, static_cast<double>(m) * slot_end, 1e-9);
}

// --- Event-derived counters -------------------------------------------------

constexpr const char* kFaultTallies[] = {
    "fault.proc_downs", "fault.proc_ups", "fault.node_restarts",
    "fault.work_overruns"};

bool is_event_counter(const std::string& name) {
  return name.rfind("sched.", 0) == 0 ||
         std::find(std::begin(kFaultTallies), std::end(kFaultTallies),
                   name) != std::end(kFaultTallies);
}

/// The counters a decision log implies, tallied here from the documented
/// event->counter table (docs/OBSERVABILITY.md) rather than through the
/// production one.
std::map<std::string, double> tally_log(
    const std::vector<DecisionEvent>& events) {
  std::map<std::string, double> out;
  for (const DecisionEvent& event : events) {
    const std::string kind = obs_event_kind_name(event.kind);
    const std::string& reason = event.reason;
    if (kind == "admit" || kind == "schedule") ++out["sched.admissions"];
    if (kind == "admit" && reason == "promoted") ++out["sched.promotions"];
    if (kind == "defer") ++out["sched.deferrals"];
    if (kind == "drop") {
      std::string suffix =
          reason.rfind("overload.shed.", 0) == 0 ? "overload" : reason;
      std::replace(suffix.begin(), suffix.end(), '-', '_');
      ++out["sched.drops." + suffix];
    }
    if (kind == "readmit-fail") ++out["sched.readmit_fails"];
    if (kind == "proc-down") ++out["fault.proc_downs"];
    if (kind == "proc-up") ++out["fault.proc_ups"];
    if (kind == "node-restart") ++out["fault.node_restarts"];
    if (kind == "work-overrun") ++out["fault.work_overruns"];
  }
  return out;
}

double count_of(const std::map<std::string, double>& counters,
                const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

struct CountedRun {
  std::map<std::string, double> counters;
  std::vector<DecisionEvent> events;
};

/// Runs `scheduler` with both a registry and a log attached.  A non-empty
/// `faults` spec attaches an injector; a non-zero `decide_budget_ns` makes
/// every fourth decision breach it (through the latency probe), so the
/// scheduler sheds load.
CountedRun run_counted(const JobSet& jobs, const std::string& scheduler,
                       EngineKind engine, ProcCount m,
                       const std::string& faults = {},
                       std::uint64_t decide_budget_ns = 0) {
  MetricRegistry registry;
  EventLog log;
  ObsSink sink;
  sink.metrics = &registry;
  sink.events = &log;
  SimOptions options;
  options.num_procs = m;
  options.obs = &sink;
  std::optional<FaultInjector> injector;
  if (!faults.empty()) {
    std::string error;
    injector = make_fault_injector(faults, m, error);
    EXPECT_TRUE(injector.has_value()) << error;
    if (injector) options.faults = &*injector;
  }
  if (decide_budget_ns > 0) {
    options.decide_budget_ns = decide_budget_ns;
    options.overload_probe = [decide_budget_ns](std::size_t decision,
                                                std::uint64_t) {
      return decision % 4 == 1 ? decide_budget_ns * 10 : 0;
    };
  }
  auto sched = make_named_scheduler(scheduler, 0.5);
  auto selector = make_selector(SelectorKind::kFifo, 1);
  const SimResult result =
      run_simulation(engine, jobs, *sched, *selector, options);
  EXPECT_FALSE(result.failed()) << result.failure_message;
  CountedRun run;
  for (const auto& [name, value] : registry.counter_values()) {
    run.counters[name] = value;
  }
  run.events = log.events();
  return run;
}

/// Every event-derived counter equals the log's tally; the four fault.*
/// tallies are present (at 0 if nothing happened) exactly when an injector
/// is attached; the counters of implementation work are gone.  Returns the
/// tally so callers can require the run covered the decisions they target.
std::map<std::string, double> expect_counters_match_log(
    const CountedRun& run, bool injector) {
  std::map<std::string, double> expected = tally_log(run.events);
  if (injector) {
    for (const char* name : kFaultTallies) expected[name] += 0.0;
  }
  std::map<std::string, double> actual;
  for (const auto& [name, value] : run.counters) {
    if (is_event_counter(name)) actual[name] = value;
    EXPECT_NE(name, "sched.admission_checks");
    EXPECT_NE(name, "sched.recomputes");
    EXPECT_NE(name.rfind("sched.skips.", 0), 0u) << name;
  }
  EXPECT_EQ(actual, expected);
  return expected;
}

JobSet thm2_jobs() {
  Rng rng(7);
  WorkloadConfig config = scenario_thm2(0.5, 0.9, 16);
  config.horizon = 400.0;
  return generate_workload(rng, config);
}

// restart=zero churn plus work overruns: churn shrinks capacity (readmit
// failures, stale drops), and overruns make admitted jobs miss their
// deadlines in Q.
constexpr const char* kChurnOverrun =
    "mtbf=45,mttr=15,horizon=300,seed=9,min-procs=4,restart=zero,"
    "overrun-prob=0.3,overrun-factor=3";

TEST(EventCounters, DeadlineSchedulerUnderChurn) {
  const CountedRun run =
      run_counted(thm2_jobs(), "s", EngineKind::kEvent, 16, kChurnOverrun);
  const auto tally = expect_counters_match_log(run, /*injector=*/true);
  for (const char* name :
       {"sched.admissions", "sched.promotions", "sched.deferrals",
        "sched.drops.stale", "sched.drops.expired_in_q",
        "sched.readmit_fails", "fault.proc_downs", "fault.proc_ups",
        "fault.node_restarts", "fault.work_overruns"}) {
    EXPECT_GT(count_of(tally, name), 0.0) << name;
  }
}

TEST(EventCounters, OverloadedProfitSchedulerOnSlotEngine) {
  Rng rng(5);
  WorkloadConfig config = scenario_profit(
      0.5, 2.5, 16, ProfitPolicy::Shape::kPlateauLinear);
  config.horizon = 200.0;
  const CountedRun run = run_counted(generate_workload(rng, config),
                                     "profit", EngineKind::kSlot, 16);
  const auto tally = expect_counters_match_log(run, /*injector=*/false);
  EXPECT_GT(count_of(tally, "sched.admissions"), 0.0);
  EXPECT_GT(count_of(tally, "sched.drops.no_valid_deadline"), 0.0);
}

TEST(EventCounters, FederatedUnderChurn) {
  const CountedRun run = run_counted(
      thm2_jobs(), "federated", EngineKind::kEvent, 16,
      "mtbf=45,mttr=15,horizon=300,seed=9,min-procs=4,restart=zero");
  const auto tally = expect_counters_match_log(run, /*injector=*/true);
  EXPECT_GT(count_of(tally, "sched.admissions"), 0.0);
  EXPECT_GT(count_of(tally, "sched.drops.cluster_overflow"), 0.0);
  EXPECT_GT(count_of(tally, "sched.readmit_fails"), 0.0);
}

TEST(EventCounters, LoadSheddingUnderADecideBudget) {
  for (const char* scheduler : {"edf", "equi"}) {
    SCOPED_TRACE(scheduler);
    const CountedRun run = run_counted(thm2_jobs(), scheduler,
                                       EngineKind::kEvent, 16, {}, 1000);
    const auto tally = expect_counters_match_log(run, /*injector=*/false);
    EXPECT_GT(count_of(tally, "sched.drops.overload"), 0.0);
    EXPECT_GT(count_of(run.counters, "overload.sheds"), 0.0);
  }
}

TEST(EventCounters, WorkOverrunsWithoutChurn) {
  // An injector without churn still registers all four fault.* tallies;
  // only the overruns are non-zero.
  const CountedRun run =
      run_counted(thm2_jobs(), "edf", EngineKind::kEvent, 16,
                  "overrun-prob=0.3,overrun-factor=3,seed=4");
  const auto tally = expect_counters_match_log(run, /*injector=*/true);
  EXPECT_GT(count_of(tally, "fault.work_overruns"), 0.0);
  for (const char* name : {"fault.proc_downs", "fault.proc_ups",
                           "fault.node_restarts"}) {
    ASSERT_EQ(run.counters.count(name), 1u) << name;
    EXPECT_EQ(run.counters.at(name), 0.0) << name;
  }
}

}  // namespace
}  // namespace dagsched
