// Causal trace export and latency attribution: the Chrome trace_event
// document round-trips through the JSON parser with a well-formed track
// structure, the per-job phase decomposition sums exactly to the response
// time (with and without restart-from-zero faults), and diff_event_logs
// finds divergences / forgives the cross-engine end-of-run tail.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/list_scheduler.h"
#include "core/deadline_scheduler.h"
#include "dag/generators.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "job/job.h"
#include "obs/attribution.h"
#include "obs/event_log.h"
#include "obs/sink.h"
#include "obs/telemetry/telemetry.h"
#include "obs/trace_export.h"
#include "sim/event_engine.h"
#include "sim/slot_engine.h"
#include "util/json.h"
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
    const double greedy = (dag.total_work() - dag.span()) / 4.0 + dag.span();
    const double deadline = std::ceil(greedy * rng.uniform(1.2, 2.5)) + 2.0;
    jobs.add(Job::with_deadline(std::make_shared<const Dag>(std::move(dag)),
                                release, deadline,
                                std::floor(rng.uniform(1.0, 10.0))));
  }
  jobs.finalize();
  return jobs;
}

struct RecordedRun {
  SimResult result;
  EventLog events;
  TelemetryRecorder telemetry;  // histograms only, as under `trace export`
};

RecordedRun run_recorded(const JobSet& jobs, ProcCount m,
                         const FaultInjector* faults = nullptr) {
  RecordedRun run;
  ObsSink sink;
  sink.events = &run.events;
  DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5)});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = m;
  options.record_trace = true;
  options.obs = &sink;
  options.telemetry = &run.telemetry;
  options.faults = faults;
  EventEngine engine(jobs, scheduler, *selector, options);
  run.result = engine.run();
  return run;
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

TEST(TraceExport, DocumentRoundTripsAndIsWellFormed) {
  const JobSet jobs = integer_workload(17u, 10);
  const RecordedRun run = run_recorded(jobs, 4);

  TraceExportInputs inputs;
  inputs.jobs = &jobs;
  inputs.result = &run.result;
  inputs.events = &run.events;
  inputs.telemetry = &run.telemetry;
  inputs.m = 4;
  inputs.label = "unit test";
  const JsonValue doc = export_chrome_trace(inputs);

  // The emitted document must survive our own strict parser -- this is the
  // "valid Chrome trace JSON" acceptance check.
  const JsonParseResult parsed = json_parse(doc.dump());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const JsonValue& root = parsed.value;
  ASSERT_TRUE(root.is_object());
  const JsonValue& other = root.at("otherData");
  EXPECT_EQ(other.at("schema").as_string(), "dagsched.trace_export/1");
  // Wall-clock timing comes from the telemetry recorder alone.
  EXPECT_EQ(other.at("telemetry").at("decide_ns").at("count").as_number(),
            static_cast<double>(run.result.decisions));
  EXPECT_FALSE(other.contains("spans"));

  const JsonValue& events = root.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_GT(events.size(), 0u);

  std::map<double, int> async_balance;  // id -> #begin - #end
  std::size_t exec_slices = 0;
  double last_ts = -1.0;
  bool in_prelude = true;
  for (const JsonValue& event : events.items()) {
    ASSERT_TRUE(event.is_object());
    const std::string& ph = event.at("ph").as_string();
    if (ph == "M") {
      EXPECT_TRUE(in_prelude) << "metadata must precede timeline events";
      continue;
    }
    in_prelude = false;
    const double ts = event.at("ts").as_number();
    EXPECT_GE(ts, last_ts) << "timeline events must be sorted";
    last_ts = ts;
    if (ph == "X") {
      EXPECT_GE(event.at("dur").as_number(), 0.0);
      ++exec_slices;
    } else if (ph == "b") {
      async_balance[event.at("id").as_number()] += 1;
    } else if (ph == "e") {
      async_balance[event.at("id").as_number()] -= 1;
    } else {
      EXPECT_EQ(ph, "i") << "unexpected phase " << ph;
    }
  }
  // Every job got an async track; each begin has a matching end.
  EXPECT_EQ(async_balance.size(), jobs.size());
  for (const auto& [id, balance] : async_balance) {
    EXPECT_EQ(balance, 0) << "unbalanced async track for job " << id;
  }
  EXPECT_GT(exec_slices, 0u);
  EXPECT_EQ(other.at("exec_slices").as_number(),
            static_cast<double>(exec_slices));
}

TEST(TraceExport, FaultInstantsLandOnMachineTracks) {
  const JobSet jobs = integer_workload(23u, 8);
  FaultPlanConfig config;
  config.seed = 5;
  config.mtbf = 12.0;
  config.mttr = 3.0;
  config.horizon = 60.0;
  config.integral_times = true;
  FaultInjector injector(build_fault_plan(config, 4));
  const RecordedRun run = run_recorded(jobs, 4, &injector);
  ASSERT_TRUE(injector.has_churn()) << "config produced no churn; tighten it";

  TraceExportInputs inputs;
  inputs.jobs = &jobs;
  inputs.result = &run.result;
  inputs.events = &run.events;
  inputs.m = 4;
  const JsonValue doc = export_chrome_trace(inputs);

  std::size_t fault_instants = 0;
  for (const JsonValue& event : doc.at("traceEvents").items()) {
    const std::string& name = event.at("name").as_string();
    if (name == "proc-down" || name == "proc-up") {
      EXPECT_EQ(event.at("ph").as_string(), "i");
      EXPECT_EQ(event.at("pid").as_number(), 1.0) << "faults belong to the "
                                                     "machine process";
      ++fault_instants;
    }
  }
  EXPECT_GT(fault_instants, 0u);
}

// ---------------------------------------------------------------------------
// Latency attribution
// ---------------------------------------------------------------------------

TEST(Attribution, PhasesSumExactlyToResponse) {
  const JobSet jobs = integer_workload(31u, 12);
  const RecordedRun run = run_recorded(jobs, 4);

  const AttributionResult attribution =
      attribute_latency(jobs, run.result, &run.events);
  ASSERT_EQ(attribution.jobs.size(), jobs.size());
  EXPECT_LE(attribution.max_identity_error, 1e-9);

  LatencyPhases recomputed;
  std::size_t ran = 0;
  for (const JobAttribution& job : attribution.jobs) {
    EXPECT_LE(job.identity_error(), 1e-9) << "job " << job.job;
    EXPECT_GE(job.response(), 0.0);
    // No phase may be negative.
    EXPECT_GE(job.phases.pending, 0.0);
    EXPECT_GE(job.phases.queued, 0.0);
    EXPECT_GE(job.phases.running, 0.0);
    EXPECT_GE(job.phases.preempted, 0.0);
    EXPECT_GE(job.phases.restart_lost, 0.0);
    EXPECT_GE(job.phases.post_deadline, 0.0);
    if (job.phases.running > 0.0) ++ran;
    recomputed.pending += job.phases.pending;
    recomputed.queued += job.phases.queued;
    recomputed.running += job.phases.running;
  }
  EXPECT_GT(ran, 0u) << "nothing executed; test is vacuous";
  EXPECT_DOUBLE_EQ(recomputed.running, attribution.totals.running);
}

TEST(Attribution, CompletedJobsDecomposeCompletionMinusArrival) {
  const JobSet jobs = integer_workload(47u, 10);
  const RecordedRun run = run_recorded(jobs, 8);

  const AttributionResult attribution =
      attribute_latency(jobs, run.result, &run.events);
  std::size_t completed = 0;
  for (const JobAttribution& job : attribution.jobs) {
    if (!job.completed) continue;
    ++completed;
    const JobOutcome& outcome =
        run.result.outcomes[static_cast<std::size_t>(job.job)];
    EXPECT_NEAR(job.phases.sum(),
                outcome.completion_time - job.arrival, 1e-9)
        << "job " << job.job;
  }
  EXPECT_GT(completed, 0u);
}

TEST(Attribution, RestartFromZeroFaultsShowUpAsLostTime) {
  // Enough churn with restart=zero that some in-flight progress is lost;
  // the lost execution must surface in restart_lost, and the identity must
  // still hold exactly.
  const JobSet jobs = integer_workload(61u, 14);
  FaultPlanConfig config;
  config.seed = 9;
  config.mtbf = 8.0;
  config.mttr = 2.0;
  config.horizon = 80.0;
  // Non-integral transition times so failures strike mid-node; integral
  // churn on unit-work nodes always lands on node boundaries and loses
  // nothing.
  config.integral_times = false;
  config.restart = RestartPolicy::kRestartFromZero;
  FaultInjector injector(build_fault_plan(config, 4));
  const RecordedRun run = run_recorded(jobs, 4, &injector);
  ASSERT_GT(run.result.lost_work, 0.0)
      << "no progress was lost; loosen mtbf so the test exercises restarts";

  const AttributionResult attribution =
      attribute_latency(jobs, run.result, &run.events);
  EXPECT_LE(attribution.max_identity_error, 1e-9);
  EXPECT_GT(attribution.totals.restart_lost, 0.0);
}

TEST(Attribution, DegradesGracefullyWithoutEventLog) {
  const JobSet jobs = integer_workload(71u, 8);
  const RecordedRun run = run_recorded(jobs, 4);

  const AttributionResult attribution =
      attribute_latency(jobs, run.result, nullptr);
  ASSERT_EQ(attribution.jobs.size(), jobs.size());
  // Without admission context, admitted-at-arrival: pending collapses into
  // queued, but the identity is untouched.
  EXPECT_LE(attribution.max_identity_error, 1e-9);
  for (const JobAttribution& job : attribution.jobs) {
    EXPECT_EQ(job.phases.pending, 0.0) << "job " << job.job;
  }
}

// ---------------------------------------------------------------------------
// Event-log diff
// ---------------------------------------------------------------------------

std::vector<DecisionEvent> make_log(
    std::initializer_list<std::pair<ObsEventKind, JobId>> entries) {
  std::vector<DecisionEvent> log;
  double t = 0.0;
  for (const auto& [kind, job] : entries) {
    DecisionEvent event;
    event.time = t;
    t += 1.0;
    event.job = job;
    event.kind = kind;
    log.push_back(event);
  }
  return log;
}

TEST(EventLogDiffTest, IdenticalLogsDoNotDiverge) {
  const auto log = make_log({{ObsEventKind::kArrival, 0},
                             {ObsEventKind::kAdmit, 0},
                             {ObsEventKind::kComplete, 0}});
  const EventLogDiff diff = diff_event_logs(log, log);
  EXPECT_TRUE(diff.identical());
  EXPECT_EQ(diff.forgiven_tail, 0u);
  ASSERT_EQ(diff.kind_deltas.size(), 3u);
  EXPECT_EQ(diff.kind_deltas[0].lhs, diff.kind_deltas[0].rhs);
}

TEST(EventLogDiffTest, ReportsFirstDivergenceAndKindDeltas) {
  const auto lhs = make_log({{ObsEventKind::kArrival, 0},
                             {ObsEventKind::kAdmit, 0},
                             {ObsEventKind::kComplete, 0}});
  const auto rhs = make_log({{ObsEventKind::kArrival, 0},
                             {ObsEventKind::kDefer, 0},
                             {ObsEventKind::kDrop, 0}});
  const EventLogDiff diff = diff_event_logs(lhs, rhs);
  ASSERT_TRUE(diff.diverged());
  EXPECT_EQ(diff.first_divergence, 1u);
  EXPECT_FALSE(diff.description.empty());
  // admit appears only on the left, defer/drop only on the right.
  bool saw_admit_delta = false;
  for (const auto& delta : diff.kind_deltas) {
    if (delta.kind == "admit") {
      saw_admit_delta = true;
      EXPECT_EQ(delta.lhs, 1u);
      EXPECT_EQ(delta.rhs, 0u);
    }
  }
  EXPECT_TRUE(saw_admit_delta);
}

TEST(EventLogDiffTest, DecisionsModeForgivesTrailingDrops) {
  const auto lhs = make_log({{ObsEventKind::kAdmit, 0}});
  auto rhs = make_log({{ObsEventKind::kAdmit, 0},
                       {ObsEventKind::kDrop, 1},
                       {ObsEventKind::kDrop, 2}});
  EventLogDiffOptions options;
  options.decisions_only = true;
  EventLogDiff diff = diff_event_logs(lhs, rhs, options);
  EXPECT_TRUE(diff.identical());
  EXPECT_EQ(diff.forgiven_tail, 2u);

  // The full comparison forgives no tail...
  diff = diff_event_logs(lhs, rhs);
  EXPECT_TRUE(diff.diverged());
  EXPECT_EQ(diff.first_divergence, 1u);

  // ...and a non-drop tail is not forgiven.
  rhs.push_back(make_log({{ObsEventKind::kAdmit, 3}}).front());
  diff = diff_event_logs(lhs, rhs, options);
  EXPECT_TRUE(diff.diverged());
}

TEST(EventLogDiffTest, DecisionsModeIgnoresTimestampSkew) {
  auto lhs = make_log({{ObsEventKind::kAdmit, 0}, {ObsEventKind::kDrop, 1}});
  auto rhs = lhs;
  for (DecisionEvent& event : rhs) event.time += 0.5;
  EventLogDiffOptions options;
  options.decisions_only = true;
  EXPECT_TRUE(diff_event_logs(lhs, rhs, options).identical());
  // The full comparison does see the skew.
  EXPECT_TRUE(diff_event_logs(lhs, rhs).diverged());
}

TEST(EventLogDiffTest, EnginesProduceNoDecisionDivergence) {
  // The acceptance check behind `dagsched trace diff --decisions`: both
  // engines on an integral workload agree on every policy decision.
  const JobSet jobs = integer_workload(5u, 14);

  EventLog ev_log;
  ObsSink ev_sink;
  ev_sink.events = &ev_log;
  DeadlineScheduler s1({.params = Params::from_epsilon(0.5)});
  auto sel1 = make_selector(SelectorKind::kFifo);
  SimOptions ev_options;
  ev_options.num_procs = 4;
  ev_options.obs = &ev_sink;
  EventEngine event_engine(jobs, s1, *sel1, ev_options);
  (void)event_engine.run();

  EventLog slot_log;
  ObsSink slot_sink;
  slot_sink.events = &slot_log;
  DeadlineScheduler s2({.params = Params::from_epsilon(0.5)});
  auto sel2 = make_selector(SelectorKind::kFifo);
  SimOptions slot_options;
  slot_options.num_procs = 4;
  slot_options.obs = &slot_sink;
  SlotEngine slot_engine(jobs, s2, *sel2, slot_options);
  (void)slot_engine.run();

  EventLogDiffOptions options;
  options.decisions_only = true;
  const EventLogDiff diff =
      diff_event_logs(ev_log.events(), slot_log.events(), options);
  EXPECT_TRUE(diff.identical())
      << format_event_log_diff(diff, "event-engine", "slot-engine");
}

}  // namespace
}  // namespace dagsched
