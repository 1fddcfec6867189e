// Counter/histogram registry semantics: register-on-first-use, accumulate,
// name-sorted snapshots, and engine-integrated counter agreement (idle time
// across both engines).
#include <gtest/gtest.h>

#include <memory>

#include "baselines/list_scheduler.h"
#include "dag/generators.h"
#include "job/job.h"
#include "obs/counters.h"
#include "obs/sink.h"
#include "sim/event_engine.h"
#include "sim/slot_engine.h"

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
  ListScheduler scheduler({ListPolicy::kEdf, false, true});
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

}  // namespace
}  // namespace dagsched
