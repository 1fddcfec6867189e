// Runtime-telemetry layer: log-bucketed latency-histogram accuracy against
// exact sorted samples, merge algebra, overflow behavior, the
// dagsched.telemetry/1 JSONL round-trip, the off==seed decision-log parity
// contract, and the memory-accounting gauges.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/list_scheduler.h"
#include "core/deadline_scheduler.h"
#include "dag/generators.h"
#include "job/job.h"
#include "obs/event_log.h"
#include "obs/report.h"
#include "obs/sink.h"
#include "obs/telemetry/latency_histogram.h"
#include "obs/telemetry/telemetry.h"
#include "sim/event_engine.h"
#include "sim/slot_engine.h"
#include "util/rng.h"
#include "workload/scenarios.h"

namespace dagsched {
namespace {

JobSet telemetry_jobs(std::size_t horizon = 120, double load = 1.2) {
  Rng rng(99);
  WorkloadConfig config = scenario_thm2(0.5, load, 8);
  config.horizon = static_cast<double>(horizon);
  return generate_workload(rng, config);
}

/// Exact nearest-rank percentile of a sorted sample vector -- the ground
/// truth the histogram approximates.
std::uint64_t exact_percentile(const std::vector<std::uint64_t>& sorted,
                               double q) {
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(q * static_cast<double>(sorted.size()))));
  return sorted[rank - 1];
}

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

TEST(LatencyHistogram, SmallValuesAreExact) {
  // Values below kSubCount get unit-width buckets: percentiles are exact.
  LatencyHistogram hist;
  for (std::uint64_t v = 0; v < LatencyHistogram::kSubCount; ++v) {
    hist.record(v);
  }
  EXPECT_EQ(hist.percentile_ns(0.5), (LatencyHistogram::kSubCount - 1) / 2);
  EXPECT_EQ(hist.percentile_ns(1.0), LatencyHistogram::kSubCount - 1);
  EXPECT_EQ(hist.min_ns(), 0u);
  EXPECT_EQ(hist.max_ns(), LatencyHistogram::kSubCount - 1);
}

TEST(LatencyHistogram, PercentilesBoundedByRelativeError) {
  // Against an exact sorted sample, every reported percentile must sit in
  // [exact, exact * (1 + 2^-kSubBits) + 1): never under-reporting, and
  // over-reporting by at most one bucket width.
  Rng rng(7);
  LatencyHistogram hist;
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over ~7 decades, the shape of real latency tails.
    const double log_ns = rng.uniform(0.0, 16.0);
    const auto v = static_cast<std::uint64_t>(std::exp(log_ns));
    samples.push_back(v);
    hist.record(v);
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.5, 0.9, 0.99, 0.999, 1.0}) {
    const std::uint64_t exact = exact_percentile(samples, q);
    const std::uint64_t approx = hist.percentile_ns(q);
    EXPECT_GE(approx, exact) << "q=" << q;
    const double bound =
        static_cast<double>(exact) *
            (1.0 + 1.0 / static_cast<double>(LatencyHistogram::kSubCount)) +
        1.0;
    EXPECT_LE(static_cast<double>(approx), bound) << "q=" << q;
  }
  EXPECT_EQ(hist.count(), samples.size());
  EXPECT_EQ(hist.max_ns(), samples.back());
}

TEST(LatencyHistogram, MergeIsAssociativeAndMatchesUnion) {
  Rng rng(21);
  LatencyHistogram a, b, c, whole;
  for (int i = 0; i < 3000; ++i) {
    const auto v = static_cast<std::uint64_t>(
        std::exp(rng.uniform(0.0, 14.0)));
    whole.record(v);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).record(v);
  }
  LatencyHistogram left_first = a;   // (a + b) + c
  left_first.merge(b);
  left_first.merge(c);
  LatencyHistogram right_first = b;  // a + (b + c)
  right_first.merge(c);
  LatencyHistogram a_copy = a;
  a_copy.merge(right_first);

  for (const LatencyHistogram* merged : {&left_first, &a_copy}) {
    EXPECT_EQ(merged->count(), whole.count());
    EXPECT_EQ(merged->min_ns(), whole.min_ns());
    EXPECT_EQ(merged->max_ns(), whole.max_ns());
    EXPECT_DOUBLE_EQ(merged->sum_ns(), whole.sum_ns());
    for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
      ASSERT_EQ(merged->buckets()[i], whole.buckets()[i]) << "bucket " << i;
    }
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
      EXPECT_EQ(merged->percentile_ns(q), whole.percentile_ns(q)) << q;
    }
  }
}

TEST(LatencyHistogram, OverflowBucketCatchesHugeValues) {
  LatencyHistogram hist;
  hist.record(10);
  hist.record(LatencyHistogram::kMaxTrackedNs);      // first overflow value
  hist.record(LatencyHistogram::kMaxTrackedNs * 4);  // far past the range
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_EQ(hist.overflow_count(), 2u);
  EXPECT_EQ(hist.max_ns(), LatencyHistogram::kMaxTrackedNs * 4);
  // Percentiles whose rank lands in the overflow bucket report max.
  EXPECT_EQ(hist.percentile_ns(1.0), LatencyHistogram::kMaxTrackedNs * 4);
  // The tracked sub-range still answers exactly.
  EXPECT_EQ(hist.percentile_ns(0.1), 10u);
}

TEST(LatencyHistogram, BucketEdgesRoundTrip) {
  // Every value must land in a bucket whose [lower, next-lower) range
  // contains it -- the invariant percentile accuracy rests on.
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{31},
        std::uint64_t{32}, std::uint64_t{33}, std::uint64_t{1023},
        std::uint64_t{1024}, std::uint64_t{123456789},
        LatencyHistogram::kMaxTrackedNs - 1}) {
    const std::size_t i = LatencyHistogram::bucket_index(v);
    ASSERT_LT(i, LatencyHistogram::kNumBuckets) << v;
    EXPECT_GE(v, LatencyHistogram::bucket_lower_bound(i)) << v;
    const std::uint64_t next = i + 1 < LatencyHistogram::kNumBuckets
                                   ? LatencyHistogram::bucket_lower_bound(i + 1)
                                   : LatencyHistogram::kMaxTrackedNs;
    EXPECT_LT(v, next) << v;
  }
}

// ---------------------------------------------------------------------------
// TelemetryRecorder + JSONL
// ---------------------------------------------------------------------------

TEST(TelemetryRecorder, JsonlRoundTripsThroughParser) {
  std::ostringstream out;
  TelemetryOptions options;
  options.out = &out;
  options.sim_interval = 10.0;
  options.include_rss = false;
  TelemetryRecorder recorder(options);
  recorder.begin_run(0.0);
  const auto t0 = TelemetryRecorder::Clock::now();
  recorder.record_decide_since(t0);
  recorder.record_admission_since(t0);

  TelemetrySample sample;
  sample.sim_time = 10.0;
  sample.decisions = 5;
  sample.arrivals = 2;
  sample.jobs_in_flight = 2;
  sample.kernel_bytes = 100;
  sample.unfolding_bytes = 200;
  sample.scheduler_bytes = 50;
  sample.input_bytes = 4000;
  ASSERT_TRUE(recorder.snapshot_due(sample.sim_time));
  recorder.emit_snapshot(sample);
  EXPECT_FALSE(recorder.snapshot_due(11.0));  // deadline advanced past now

  sample.sim_time = 25.0;
  sample.decisions = 9;
  recorder.finish_run(sample);
  EXPECT_EQ(recorder.snapshots_emitted(), 2u);

  std::istringstream in(out.str());
  JsonlError error;
  const auto snapshots = parse_telemetry_jsonl(in, &error);
  ASSERT_TRUE(snapshots.has_value()) << error.message;
  ASSERT_EQ(snapshots->size(), 2u);

  const JsonValue& first = (*snapshots)[0];
  EXPECT_EQ(first.find("schema")->as_string(), kTelemetrySchema);
  EXPECT_DOUBLE_EQ(first.find("seq")->as_number(), 0.0);
  EXPECT_FALSE(first.find("final")->as_bool());
  EXPECT_DOUBLE_EQ(first.find("sim_time")->as_number(), 10.0);
  EXPECT_DOUBLE_EQ(first.find("counters")->find("decisions")->as_number(),
                   5.0);
  const JsonValue* gauges = first.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->find("tracked_bytes")->as_number(), 350.0);
  // The input is reported beside the tracked bytes, not inside them.
  EXPECT_DOUBLE_EQ(gauges->find("input_bytes")->as_number(), 4000.0);
  EXPECT_DOUBLE_EQ(gauges->find("bytes_per_job")->as_number(), 350.0 / 2.0);
  EXPECT_DOUBLE_EQ(gauges->find("rss_bytes")->as_number(), 0.0);
  ASSERT_NE(first.find("decide_ns"), nullptr);
  EXPECT_DOUBLE_EQ(first.find("decide_ns")->find("count")->as_number(), 1.0);

  const JsonValue& last = (*snapshots)[1];
  EXPECT_TRUE(last.find("final")->as_bool());
  EXPECT_DOUBLE_EQ(last.find("seq")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(last.find("counters")->find("decisions")->as_number(),
                   9.0);
}

TEST(TelemetryParser, RejectsMalformedAndWrongSchemaLines) {
  std::istringstream bad(
      "{\"schema\":\"dagsched.telemetry/1\"}\n{\"schema\":,}\n");
  JsonlError error;
  EXPECT_FALSE(parse_telemetry_jsonl(bad, &error).has_value());
  EXPECT_EQ(error.line, 2u) << error.message;
  EXPECT_EQ(error.column, 11u) << error.message;  // offset 10, 1-based

  std::istringstream wrong("{\"schema\":\"dagsched.run_report/1\"}\n");
  EXPECT_FALSE(parse_telemetry_jsonl(wrong, &error).has_value());
  EXPECT_EQ(error.line, 1u) << error.message;
  EXPECT_EQ(error.column, 1u) << error.message;
  EXPECT_NE(error.message.find("schema"), std::string::npos)
      << error.message;
}

// ---------------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------------

/// Runs the workload on the given engine, returning the serialized decision
/// log; optionally with a telemetry recorder attached.
std::string run_and_log(const JobSet& jobs, bool slot,
                        TelemetryRecorder* telemetry) {
  EventLog log;
  ObsSink sink;
  sink.events = &log;
  DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5)});
  auto sel = make_selector(SelectorKind::kFifo);
  SimResult result;
  if (slot) {
    SimOptions options;
    options.num_procs = 8;
    options.obs = &sink;
    options.telemetry = telemetry;
    SlotEngine engine(jobs, scheduler, *sel, options);
    result = engine.run();
  } else {
    SimOptions options;
    options.num_procs = 8;
    options.obs = &sink;
    options.telemetry = telemetry;
    result = simulate(jobs, scheduler, *sel, options);
  }
  EXPECT_FALSE(result.failed());
  std::ostringstream out;
  log.write_jsonl(out);
  return out.str();
}

TEST(TelemetryIntegration, DecisionLogsAreByteIdenticalWithTelemetry) {
  // The contract the CLI parity script checks across all scheduler/engine
  // combos, asserted in-process here for both engines: attaching a recorder
  // must not change a single decision byte.
  const JobSet jobs = telemetry_jobs();
  for (const bool slot : {false, true}) {
    const std::string plain = run_and_log(jobs, slot, nullptr);
    TelemetryRecorder recorder;  // histogram-only, no sink
    const std::string with_telemetry = run_and_log(jobs, slot, &recorder);
    EXPECT_EQ(plain, with_telemetry) << (slot ? "slot" : "event");
    EXPECT_GT(recorder.decide_histogram().count(), 0u);
  }
}

TEST(TelemetryIntegration, KernelFillsHistogramsAndGauges) {
  const JobSet jobs = telemetry_jobs();
  std::ostringstream out;
  TelemetryOptions options;
  options.out = &out;
  options.sim_interval = 30.0;
  options.include_rss = false;
  TelemetryRecorder recorder(options);

  DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5)});
  auto sel = make_selector(SelectorKind::kFifo);
  SimOptions engine_options;
  engine_options.num_procs = 8;
  engine_options.telemetry = &recorder;
  const SimResult result = simulate(jobs, scheduler, *sel, engine_options);
  ASSERT_FALSE(result.failed());

  // Every decision and every arrival was timed.
  EXPECT_EQ(recorder.decide_histogram().count(), result.decisions);
  EXPECT_EQ(recorder.admission_histogram().count(), jobs.size());

  // The final sample carries the memory accounting: all three subsystems
  // report non-zero allocated bytes on a non-trivial run.
  ASSERT_TRUE(recorder.has_sample());
  const TelemetrySample& sample = recorder.last_sample();
  EXPECT_TRUE(sample.final_snapshot);
  EXPECT_EQ(sample.decisions, result.decisions);
  EXPECT_EQ(sample.arrivals, jobs.size());
  EXPECT_EQ(sample.completions, result.jobs_completed);
  EXPECT_GT(sample.kernel_bytes, 0u);
  EXPECT_GT(sample.unfolding_bytes, 0u);
  EXPECT_GT(sample.scheduler_bytes, 0u);
  EXPECT_EQ(sample.input_bytes, jobs.input_bytes());

  // Periodic + final snapshots landed in the stream and parse back.
  EXPECT_GE(recorder.snapshots_emitted(), 2u);
  std::istringstream in(out.str());
  JsonlError error;
  const auto snapshots = parse_telemetry_jsonl(in, &error);
  ASSERT_TRUE(snapshots.has_value()) << error.message;
  EXPECT_EQ(snapshots->size(), recorder.snapshots_emitted());
  EXPECT_TRUE(snapshots->back().find("final")->as_bool());
  EXPECT_GT(snapshots->back().find("gauges")->find("bytes_per_job")
                ->as_number(),
            0.0);
}

TEST(TelemetryIntegration, RunReportGainsTelemetrySectionOnlyWhenAttached) {
  const JobSet jobs = telemetry_jobs(60);
  TelemetryRecorder recorder;
  DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5)});
  auto sel = make_selector(SelectorKind::kFifo);
  SimOptions engine_options;
  engine_options.num_procs = 8;
  engine_options.telemetry = &recorder;
  const SimResult result = simulate(jobs, scheduler, *sel, engine_options);
  ASSERT_FALSE(result.failed());

  RunReportInputs inputs;
  inputs.scheduler = "s";
  inputs.engine = "event";
  inputs.m = 8;
  inputs.jobs = &jobs;
  inputs.result = &result;
  const JsonValue without = build_run_report(inputs);
  EXPECT_EQ(without.find("telemetry"), nullptr);

  inputs.telemetry = &recorder;
  const JsonValue with = build_run_report(inputs);
  const JsonValue* section = with.find("telemetry");
  ASSERT_NE(section, nullptr);
  EXPECT_GT(section->find("decide_ns")->find("count")->as_number(), 0.0);
  ASSERT_NE(section->find("gauges"), nullptr);
  EXPECT_GT(section->find("gauges")->find("tracked_bytes")->as_number(), 0.0);
  EXPECT_DOUBLE_EQ(section->find("gauges")->find("input_bytes")->as_number(),
                   static_cast<double>(jobs.input_bytes()));
  // The renderer shows the section.
  EXPECT_NE(format_run_report(with).find("[telemetry]"), std::string::npos);
  EXPECT_EQ(format_run_report(without).find("[telemetry]"),
            std::string::npos);
}

}  // namespace
}  // namespace dagsched
