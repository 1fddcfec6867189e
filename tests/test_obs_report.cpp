// Run-report schema stability: the top-level key set of the versioned
// report document is locked here -- extend by adding keys, never by
// renaming or repurposing (consumers key on them).  Also covers the JSON
// model round-trip and the bench-report flavor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "baselines/list_scheduler.h"
#include "dag/generators.h"
#include "job/job.h"
#include "obs/report.h"
#include "obs/sink.h"
#include "obs/telemetry/telemetry.h"
#include "sim/event_engine.h"
#include "sim/metrics.h"
#include "util/json.h"
#include "util/rng.h"

namespace dagsched {
namespace {

TEST(Json, RoundTripsThroughDump) {
  JsonValue obj = JsonValue::object();
  obj.set("name", "run");
  obj.set("count", 3);
  obj.set("ratio", 0.5);
  obj.set("flag", true);
  obj.set("nothing", JsonValue());
  JsonValue arr = JsonValue::array();
  arr.push_back(1.0);
  arr.push_back("two");
  obj.set("list", std::move(arr));

  const std::string text = obj.dump();
  const JsonParseResult parsed = json_parse(text);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value, obj);
  // Objects preserve insertion order through serialization.
  EXPECT_EQ(parsed.value.members().front().first, "name");
}

TEST(Json, ParsesEscapesAndRejectsGarbage) {
  const JsonParseResult ok = json_parse("{\"a\":\"x\\n\\\"y\\u0041\"}");
  ASSERT_TRUE(ok.ok);
  EXPECT_EQ(ok.value.at("a").as_string(), "x\n\"yA");
  EXPECT_FALSE(json_parse("{\"a\":}").ok);
  EXPECT_FALSE(json_parse("[1,2,]").ok);
  EXPECT_FALSE(json_parse("{} trailing").ok);
}

TEST(Json, IntegralNumbersPrintWithoutExponent) {
  EXPECT_EQ(JsonValue(8).dump(), "8");
  EXPECT_EQ(JsonValue(1e6).dump(), "1000000");
  EXPECT_EQ(JsonValue(0.5).dump(), "0.5");
}

TEST(Json, NumbersKeepTheirPrintfIntegralForm) {
  // Integral values below 1e15 print as printf's "%.0f" does, -0 included;
  // non-finite values clamp.
  Rng rng(23);
  std::vector<double> values = {0.0, -0.0, 1.0, -1.0, 999999999999999.0,
                                -999999999999999.0, 4294967295.0};
  for (int i = 0; i < 1000; ++i) {
    values.push_back(std::floor(rng.uniform(-1e15, 1e15) /
                                std::pow(10.0, rng.uniform_int(0, 14))));
  }
  for (const double value : values) {
    char expected[32];
    std::snprintf(expected, sizeof expected, "%.0f", value);
    EXPECT_EQ(json_number_to_string(value), expected) << value;
  }
  EXPECT_EQ(json_number_to_string(1e15), "1e+15");
  EXPECT_EQ(json_number_to_string(std::numeric_limits<double>::infinity()),
            "1e308");
  EXPECT_EQ(json_number_to_string(-std::numeric_limits<double>::infinity()),
            "-1e308");
  EXPECT_EQ(json_number_to_string(std::numeric_limits<double>::quiet_NaN()),
            "0");
}

TEST(Json, StringsEscapeQuotesBackslashesAndControlCharacters) {
  std::string out;
  append_json_string(out, std::string("a\"b\\c\n\r\t\x01\x1f\0\x7f\xc3\xa9", 14));
  EXPECT_EQ(out,
            "\"a\\\"b\\\\c\\n\\r\\t\\u0001\\u001f\\u0000\x7f\xc3\xa9\"");
  EXPECT_EQ(JsonValue(std::string("q\"")).dump(), "\"q\\\"\"");
}

struct ReportFixture {
  JobSet jobs;
  SimResult result;
  ScheduleMetrics metrics;
  MetricRegistry registry;
  TelemetryRecorder telemetry;  // histograms only, as under `run --obs`
  EventLog events;

  ReportFixture() {
    Rng rng(11);
    RandomDagParams params;
    params.nodes = 6;
    params.work = WorkDist::constant(1.0);
    for (int i = 0; i < 4; ++i) {
      Dag dag = make_random_dag(rng, params);
      jobs.add(Job::with_deadline(
          std::make_shared<const Dag>(std::move(dag)),
          static_cast<double>(i), 12.0, 5.0));
    }
    jobs.finalize();

    ObsSink sink;
    sink.metrics = &registry;
    sink.events = &events;
    ListScheduler scheduler({ListPolicy::kEdf, false});
    auto selector = make_selector(SelectorKind::kFifo);
    SimOptions options;
    options.num_procs = 4;
    options.record_trace = true;
    options.obs = &sink;
    options.telemetry = &telemetry;
    EventEngine engine(jobs, scheduler, *selector, options);
    result = engine.run();
    metrics = compute_metrics(result, jobs, 4);
  }

  JsonValue build(bool embed_events = true) const {
    RunReportInputs inputs;
    inputs.scheduler = "edf";
    inputs.engine = "event";
    inputs.workload = "synthetic";
    inputs.m = 4;
    inputs.speed = 1.0;
    inputs.jobs = &jobs;
    inputs.result = &result;
    inputs.metrics = &metrics;
    inputs.registry = &registry;
    inputs.telemetry = &telemetry;
    if (embed_events) inputs.events = &events;
    return build_run_report(inputs);
  }
};

TEST(RunReport, TopLevelKeySetIsLocked) {
  const ReportFixture fixture;
  const JsonValue report = fixture.build();

  std::vector<std::string> keys;
  for (const auto& [key, value] : report.members()) keys.push_back(key);
  const std::vector<std::string> expected = {
      "schema",     "run",       "results",  "metrics",
      "counters",   "histograms", "telemetry", "timeline", "events"};
  EXPECT_EQ(keys, expected)
      << "top-level report keys changed -- bump the schema version and "
         "update every consumer before touching this list";
  EXPECT_EQ(report.at("schema").as_string(), kRunReportSchema);
}

TEST(RunReport, SurvivesJsonRoundTrip) {
  const ReportFixture fixture;
  const JsonValue report = fixture.build();
  const JsonParseResult parsed = json_parse(report.dump());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value, report);
}

TEST(RunReport, ResultsSectionMatchesSimResult) {
  const ReportFixture fixture;
  const JsonValue report = fixture.build();
  const JsonValue& results = report.at("results");
  EXPECT_DOUBLE_EQ(results.at("profit").as_number(),
                   fixture.result.total_profit);
  EXPECT_DOUBLE_EQ(results.at("completed").as_number(),
                   static_cast<double>(fixture.result.jobs_completed));
  EXPECT_DOUBLE_EQ(results.at("end_time").as_number(),
                   fixture.result.end_time);
  // Counters embed the engine's view of the same run.
  EXPECT_DOUBLE_EQ(report.at("counters").at("engine.decisions").as_number(),
                   static_cast<double>(fixture.result.decisions));
}

TEST(RunReport, TelemetryTimesEveryDecideAndTheRun) {
  const ReportFixture fixture;
  const JsonValue report = fixture.build();
  const JsonValue& telemetry = report.at("telemetry");
  EXPECT_DOUBLE_EQ(telemetry.at("decide_ns").at("count").as_number(),
                   report.at("results").at("decisions").as_number());
  EXPECT_GT(telemetry.at("wall_ms").as_number(), 0.0);
  EXPECT_FALSE(report.contains("spans"));
}

TEST(RunReport, TimelineCoversRun) {
  const ReportFixture fixture;
  const JsonValue report = fixture.build();
  const JsonValue& timeline = report.at("timeline");
  EXPECT_GT(timeline.at("horizon").as_number(), 0.0);
  const JsonValue& utilization = timeline.at("utilization");
  ASSERT_GT(utilization.size(), 0u);
  for (const JsonValue& value : utilization.items()) {
    EXPECT_GE(value.as_number(), 0.0);
    EXPECT_LE(value.as_number(), 1.0 + 1e-9);
  }
}

TEST(RunReport, FormatsWithoutCrashing) {
  const ReportFixture fixture;
  const std::string text = format_run_report(fixture.build());
  EXPECT_NE(text.find("edf"), std::string::npos);
  EXPECT_NE(text.find("[results]"), std::string::npos);
  // A foreign document degrades gracefully (renders nothing) instead of
  // aborting on missing sections.
  const std::string degenerate = format_run_report(JsonValue::object());
  EXPECT_TRUE(degenerate.empty());
}

TEST(BenchReport, CarriesMeasurements) {
  std::vector<BenchMeasurement> runs(2);
  runs[0].name = "BM_event/16";
  runs[0].real_time_ns = 1234.5;
  runs[0].cpu_time_ns = 1200.0;
  runs[0].iterations = 1000;
  runs[0].counters = {{"decisions", 42.0}};
  runs[1].name = "BM_event/16_mean";
  runs[1].aggregate = true;

  const JsonValue report = build_bench_report("engine_perf", runs);
  EXPECT_EQ(report.at("schema").as_string(), kBenchReportSchema);
  EXPECT_EQ(report.at("bench").as_string(), "engine_perf");
  const JsonValue& measurements = report.at("measurements");
  ASSERT_EQ(measurements.size(), 2u);
  const JsonValue& first = measurements.items()[0];
  EXPECT_EQ(first.at("name").as_string(), "BM_event/16");
  EXPECT_DOUBLE_EQ(first.at("counters").at("decisions").as_number(), 42.0);
  EXPECT_TRUE(measurements.items()[1].at("aggregate").as_bool());

  const JsonParseResult parsed = json_parse(report.dump());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value, report);
}

}  // namespace
}  // namespace dagsched
