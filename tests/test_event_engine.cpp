// EventEngine: machine-model semantics, timing exactness, event delivery,
// and the paper's Observations 1 and 2 as executable properties.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/list_scheduler.h"
#include "dag/generators.h"
#include "job/job.h"
#include "sim/event_engine.h"
#include "util/float_cmp.h"
#include "util/rng.h"

namespace dagsched {
namespace {

std::shared_ptr<const Dag> share(Dag dag) {
  return std::make_shared<const Dag>(std::move(dag));
}

/// Grants exactly `n` processors to every active job, in job-id order.
class DedicatedScheduler final : public SchedulerBase {
 public:
  explicit DedicatedScheduler(ProcCount n) : n_(n) {}
  std::string name() const override { return "dedicated"; }
  void decide(const EngineContext& ctx, Assignment& out) override {
    ProcCount free = ctx.num_procs();
    for (const JobId job : ctx.active_jobs()) {
      if (n_ > free) break;
      out.add(job, n_);
      free -= n_;
    }
  }

 private:
  ProcCount n_;
};

/// Never schedules anything.
class IdleScheduler final : public SchedulerBase {
 public:
  std::string name() const override { return "idle"; }
  void decide(const EngineContext&, Assignment&) override {}
};

SimResult run_single(Dag dag, Time deadline, ProcCount m, double speed,
                     SelectorKind selector = SelectorKind::kFifo,
                     bool trace = false) {
  JobSet jobs;
  jobs.add(Job::with_deadline(share(std::move(dag)), 0.0, deadline, 1.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kEdf, false});
  auto sel = make_selector(selector);
  SimOptions options;
  options.num_procs = m;
  options.speed = speed;
  options.record_trace = trace;
  return simulate(jobs, scheduler, *sel, options);
}

TEST(EventEngine, SingleNodeCompletesAtWork) {
  const SimResult result = run_single(make_single_node(3.0), 10.0, 1, 1.0);
  ASSERT_TRUE(result.outcomes[0].completed);
  EXPECT_DOUBLE_EQ(result.outcomes[0].completion_time, 3.0);
  EXPECT_DOUBLE_EQ(result.total_profit, 1.0);
  EXPECT_DOUBLE_EQ(result.busy_proc_time, 3.0);
}

TEST(EventEngine, SpeedAugmentationScalesTime) {
  const SimResult result = run_single(make_single_node(3.0), 10.0, 1, 2.0);
  EXPECT_DOUBLE_EQ(result.outcomes[0].completion_time, 1.5);
}

TEST(EventEngine, ParallelBlockUsesAllProcs) {
  // 8 unit nodes on 4 processors: two waves of 1.0.
  const SimResult result = run_single(make_parallel_block(8, 1.0), 10.0, 4, 1.0);
  EXPECT_DOUBLE_EQ(result.outcomes[0].completion_time, 2.0);
  EXPECT_DOUBLE_EQ(result.busy_proc_time, 8.0);
}

TEST(EventEngine, ChainIsSequentialDespiteManyProcs) {
  const SimResult result = run_single(make_chain(5, 1.0), 10.0, 8, 1.0);
  EXPECT_DOUBLE_EQ(result.outcomes[0].completion_time, 5.0);
}

TEST(EventEngine, MissedDeadlineEarnsNothing) {
  const SimResult result = run_single(make_chain(5, 1.0), 3.0, 4, 1.0);
  // EDF drops the job once expired; it never completes.
  EXPECT_FALSE(result.outcomes[0].completed);
  EXPECT_DOUBLE_EQ(result.total_profit, 0.0);
}

TEST(EventEngine, LateReleaseDelaysStart) {
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_single_node(2.0)), 5.0, 10.0, 1.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kEdf, false});
  auto sel = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 1;
  const SimResult result = simulate(jobs, scheduler, *sel, options);
  EXPECT_DOUBLE_EQ(result.outcomes[0].first_start, 5.0);
  EXPECT_DOUBLE_EQ(result.outcomes[0].completion_time, 7.0);
}

TEST(EventEngine, IdleSchedulerLeavesJobsIncomplete) {
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_single_node(1.0)), 0.0, 4.0, 1.0));
  jobs.finalize();
  IdleScheduler scheduler;
  auto sel = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 2;
  const SimResult result = simulate(jobs, scheduler, *sel, options);
  EXPECT_FALSE(result.outcomes[0].completed);
  EXPECT_EQ(result.jobs_completed, 0u);
  EXPECT_DOUBLE_EQ(result.outcomes[0].executed, 0.0);
}

TEST(EventEngine, DeadlineEventDelivered) {
  struct Recorder final : SchedulerBase {
    std::string name() const override { return "recorder"; }
    void decide(const EngineContext&, Assignment&) override {}
    void on_deadline(const EngineContext& ctx, JobId job) override {
      expired_job = job;
      expired_at = ctx.now();
    }
    JobId expired_job = kInvalidJob;
    Time expired_at = -1.0;
  };
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_single_node(1.0)), 1.0, 3.0, 1.0));
  jobs.finalize();
  Recorder scheduler;
  auto sel = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 1;
  simulate(jobs, scheduler, *sel, options);
  EXPECT_EQ(scheduler.expired_job, 0u);
  EXPECT_DOUBLE_EQ(scheduler.expired_at, 4.0);  // release 1 + D 3
}

TEST(EventEngine, OverAllocationIsCappedByReadyNodes) {
  // A chain has 1 ready node; granting 4 processors must not over-execute.
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_chain(3, 1.0)), 0.0, 100.0, 1.0));
  jobs.finalize();
  DedicatedScheduler scheduler(4);
  auto sel = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 4;
  const SimResult result = simulate(jobs, scheduler, *sel, options);
  EXPECT_TRUE(result.outcomes[0].completed);
  EXPECT_DOUBLE_EQ(result.outcomes[0].completion_time, 3.0);
  EXPECT_DOUBLE_EQ(result.busy_proc_time, 3.0);  // 1 proc effectively busy
}

// Observation 1: with all ready nodes executing at speed s, the remaining
// critical path decreases at rate s.  Chain on one proc at speed 2: span 5
// gone in 2.5.
TEST(EventEngine, Observation1SpanDecreasesAtSpeed) {
  const SimResult result = run_single(make_chain(5, 1.0), 10.0, 1, 2.0);
  EXPECT_DOUBLE_EQ(result.outcomes[0].completion_time, 2.5);
}

// Observation 2 (Graham bound) as a property: a job on n dedicated
// processors finishes within (W - L)/n + L regardless of node selection.
struct GrahamCase {
  std::uint64_t seed;
  ProcCount n;
  SelectorKind selector;
};

class GrahamBound : public ::testing::TestWithParam<GrahamCase> {};

TEST_P(GrahamBound, CompletesWithinBound) {
  const GrahamCase param = GetParam();
  Rng rng(param.seed);
  RandomDagParams dag_params;
  dag_params.nodes = 40;
  dag_params.edge_prob = 0.1;
  Dag dag = make_random_dag(rng, dag_params);
  const Work work = dag.total_work();
  const Work span = dag.span();
  const double bound =
      (work - span) / static_cast<double>(param.n) + span;

  JobSet jobs;
  jobs.add(Job::with_deadline(share(std::move(dag)), 0.0, 10.0 * bound, 1.0));
  jobs.finalize();
  DedicatedScheduler scheduler(param.n);
  auto sel = make_selector(param.selector, param.seed);
  SimOptions options;
  options.num_procs = param.n;
  options.record_trace = true;
  const SimResult result = simulate(jobs, scheduler, *sel, options);
  ASSERT_TRUE(result.outcomes[0].completed);
  EXPECT_LE(result.outcomes[0].completion_time, bound + 1e-6)
      << "selector=" << selector_kind_name(param.selector)
      << " n=" << param.n;
  EXPECT_EQ(result.trace.validate(jobs, param.n, 1.0), "");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GrahamBound,
    ::testing::Values(GrahamCase{1, 1, SelectorKind::kFifo},
                      GrahamCase{1, 2, SelectorKind::kLifo},
                      GrahamCase{2, 4, SelectorKind::kAdversarial},
                      GrahamCase{3, 4, SelectorKind::kRandom},
                      GrahamCase{4, 8, SelectorKind::kAdversarial},
                      GrahamCase{5, 8, SelectorKind::kCriticalPath},
                      GrahamCase{6, 16, SelectorKind::kRandom},
                      GrahamCase{7, 3, SelectorKind::kFifo}));

TEST(EventEngine, MultiJobTraceIsValidSchedule) {
  Rng rng(123);
  JobSet jobs;
  for (int i = 0; i < 12; ++i) {
    RandomDagParams params;
    params.nodes = 20;
    params.edge_prob = 0.1;
    Dag dag = make_random_dag(rng, params);
    const double release = rng.uniform(0.0, 30.0);
    const double slack = rng.uniform(1.2, 3.0);
    const double deadline =
        slack * ((dag.total_work() - dag.span()) / 4.0 + dag.span());
    jobs.add(Job::with_deadline(share(std::move(dag)), release, deadline,
                                rng.uniform(0.5, 2.0)));
  }
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kEdf, false});
  auto sel = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 4;
  options.record_trace = true;
  const SimResult result = simulate(jobs, scheduler, *sel, options);
  EXPECT_EQ(result.trace.validate(jobs, 4, 1.0), "");
  EXPECT_GT(result.jobs_completed, 0u);
}

TEST(EventEngine, BusyTimeEqualsExecutedWork) {
  Rng rng(321);
  JobSet jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.add(Job::with_deadline(share(make_parallel_block(10, 1.0)),
                                static_cast<double>(i), 100.0, 1.0));
  }
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kFcfs, false});
  auto sel = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 3;
  options.speed = 2.0;
  const SimResult result = simulate(jobs, scheduler, *sel, options);
  EXPECT_EQ(result.jobs_completed, 6u);
  Work executed = 0.0;
  for (const JobOutcome& outcome : result.outcomes) {
    executed += outcome.executed;
  }
  // busy processor-time * speed == work executed.
  EXPECT_NEAR(result.busy_proc_time * 2.0, executed, 1e-6);
  EXPECT_NEAR(executed, 60.0, 1e-6);
}

}  // namespace
}  // namespace dagsched
