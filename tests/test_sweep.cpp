// Sweep executor + sweep report: the determinism contract (docs/SWEEP.md).
//
// The two load-bearing properties:
//   * histogram shard-and-merge is exact -- merging N per-worker
//     LatencyHistograms equals one recorder that saw every sample, for any
//     partition and any merge order;
//   * a sweep's per-cell results (event logs byte-for-byte, metrics,
//     histograms) are invariant to the worker-thread count.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "exp/sweep/report_writer.h"
#include "exp/sweep/sweep.h"
#include "obs/sweep_report.h"
#include "obs/telemetry/latency_histogram.h"
#include "util/json.h"
#include "util/parse_error.h"
#include "workload/scenarios.h"

namespace dagsched {
namespace {

// Deterministic pseudo-random latencies spanning several octaves.
std::vector<std::uint64_t> sample_latencies(std::size_t count) {
  std::vector<std::uint64_t> samples;
  samples.reserve(count);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < count; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    samples.push_back(state % 5'000'000);  // up to 5 ms
  }
  return samples;
}

TEST(LatencyHistogramMerge, ShardedMergeEqualsSingleRecorder) {
  const std::vector<std::uint64_t> samples = sample_latencies(4096);
  LatencyHistogram single;
  for (const std::uint64_t ns : samples) single.record(ns);

  for (const std::size_t shards : {2u, 3u, 8u}) {
    std::vector<LatencyHistogram> workers(shards);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      workers[i % shards].record(samples[i]);
    }
    LatencyHistogram merged;
    for (const LatencyHistogram& worker : workers) merged.merge(worker);
    EXPECT_TRUE(merged == single) << shards << " shards";
  }
}

TEST(LatencyHistogramMerge, MergeIsAssociativeAndOrderIndependent) {
  const std::vector<std::uint64_t> samples = sample_latencies(900);
  LatencyHistogram a, b, c;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).record(samples[i]);
  }

  LatencyHistogram left = a;  // (a + b) + c
  left.merge(b);
  left.merge(c);
  LatencyHistogram bc = b;  // a + (b + c)
  bc.merge(c);
  LatencyHistogram right = a;
  right.merge(bc);
  LatencyHistogram reversed = c;  // c + b + a
  reversed.merge(b);
  reversed.merge(a);

  EXPECT_TRUE(left == right);
  EXPECT_TRUE(left == reversed);
}

TEST(LatencyHistogramMerge, EqualityDetectsDifferences) {
  LatencyHistogram a, b;
  a.record(100);
  b.record(100);
  EXPECT_TRUE(a == b);
  b.record(101);
  EXPECT_FALSE(a == b);
}

// --------------------------------------------------------------------------
// Sweep executor
// --------------------------------------------------------------------------

JobSet small_workload() {
  Rng rng(7);
  return generate_workload(rng, scenario_thm2(0.5, 0.9, 8));
}

/// The acceptance matrix: 4 schedulers x 3 fault modes x 2 engines.
std::vector<SweepCellSpec> acceptance_cells(const JobSet& jobs) {
  const char* kSchedulers[] = {"s", "s-wc", "fcfs", "edf"};
  const std::pair<const char*, const char*> kFaults[] = {
      {"none", ""},
      {"churn-resume",
       "mtbf=60,mttr=20,horizon=300,seed=5,min-procs=4,restart=resume"},
      {"churn-zero",
       "mtbf=45,mttr=15,horizon=300,seed=9,min-procs=4,restart=zero"},
  };
  const EngineKind kEngines[] = {EngineKind::kEvent, EngineKind::kSlot};

  std::vector<SweepCellSpec> cells;
  for (const char* scheduler : kSchedulers) {
    for (const auto& [fault_label, fault_spec] : kFaults) {
      for (const EngineKind engine : kEngines) {
        SweepCellSpec spec;
        spec.workload_label = "thm2";
        spec.jobs = &jobs;
        spec.scheduler = scheduler;
        spec.engine = engine;
        spec.m = 8;
        spec.fault_label = fault_label;
        spec.fault_spec = fault_spec;
        spec.id = std::string(scheduler) + "_" + engine_kind_name(engine) +
                  "_thm2_" + fault_label;
        cells.push_back(std::move(spec));
      }
    }
  }
  return cells;
}

TEST(Sweep, ResultsInvariantToThreadCount) {
  const JobSet jobs = small_workload();
  SweepOptions options;
  options.capture_events = true;

  options.threads = 1;
  const SweepResult serial = run_sweep(acceptance_cells(jobs), options);
  ASSERT_EQ(serial.results.size(), 24u);
  ASSERT_EQ(serial.failed_cells, 0u);

  for (const std::size_t threads : {2u, 3u, 4u, 8u}) {
    options.threads = threads;
    const SweepResult parallel = run_sweep(acceptance_cells(jobs), options);
    ASSERT_EQ(parallel.results.size(), serial.results.size());
    for (std::size_t i = 0; i < serial.results.size(); ++i) {
      const SweepCellResult& lhs = serial.results[i];
      const SweepCellResult& rhs = parallel.results[i];
      // Byte-identical decision logs: the headline determinism contract.
      EXPECT_EQ(lhs.events_jsonl, rhs.events_jsonl)
          << serial.cells[i].id << " with " << threads << " threads";
      EXPECT_FALSE(lhs.events_jsonl.empty()) << serial.cells[i].id;
      EXPECT_EQ(lhs.metrics.decisions, rhs.metrics.decisions);
      EXPECT_EQ(lhs.metrics.completed, rhs.metrics.completed);
      EXPECT_EQ(lhs.metrics.profit, rhs.metrics.profit);
      EXPECT_EQ(lhs.counters, rhs.counters);
      // Latency samples differ run to run (wall clock), but counts track
      // the decision sequence exactly.
      EXPECT_EQ(lhs.decide.count(), rhs.decide.count());
      EXPECT_EQ(lhs.transition.count(), rhs.transition.count());
    }
    EXPECT_EQ(parallel.counters, serial.counters);
  }
}

// Every cell runs exactly once whether cells outnumber threads or threads
// outnumber cells: on_progress counts completed = 1..N once each, and every
// result slot holds that cell's serial run.
TEST(Sweep, CursorRunsEveryCellExactlyOnce) {
  const JobSet jobs = small_workload();
  std::vector<SweepCellSpec> many = acceptance_cells(jobs);
  const std::vector<SweepCellSpec> more = acceptance_cells(jobs);
  many.insert(many.end(), more.begin(), more.end());
  const std::vector<SweepCellSpec> few(many.begin(), many.begin() + 3);

  for (const auto& [cells, threads] :
       {std::pair{many, std::size_t{3}}, std::pair{few, std::size_t{8}}}) {
    SweepOptions options;
    options.capture_events = true;
    options.threads = threads;
    std::vector<std::size_t> completed;
    options.on_progress = [&completed](const SweepProgress& progress) {
      completed.push_back(progress.completed);
    };
    const SweepResult sweep = run_sweep(cells, options);

    ASSERT_EQ(completed.size(), cells.size()) << threads << " threads";
    for (std::size_t i = 0; i < completed.size(); ++i) {
      EXPECT_EQ(completed[i], i + 1);
    }
    ASSERT_EQ(sweep.results.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const SweepCellResult serial = run_sweep_cell(cells[i], options);
      EXPECT_FALSE(serial.events_jsonl.empty()) << cells[i].id;
      EXPECT_EQ(sweep.results[i].events_jsonl, serial.events_jsonl)
          << cells[i].id << " with " << threads << " threads";
      EXPECT_EQ(sweep.results[i].counters, serial.counters);
    }
  }
}

TEST(Sweep, CellResultMatchesDirectRun) {
  const JobSet jobs = small_workload();
  SweepOptions options;
  options.capture_events = true;
  std::vector<SweepCellSpec> cells = acceptance_cells(jobs);
  const SweepCellSpec spec = cells[0];

  options.threads = 4;
  const SweepResult sweep = run_sweep(std::move(cells), options);
  const SweepCellResult direct = run_sweep_cell(spec, options);
  EXPECT_EQ(direct.events_jsonl, sweep.results[0].events_jsonl);
  EXPECT_EQ(direct.metrics.decisions, sweep.results[0].metrics.decisions);
  EXPECT_EQ(direct.metrics.profit, sweep.results[0].metrics.profit);
}

TEST(Sweep, MergedHistogramEqualsBucketwiseMergeOfCells) {
  const JobSet jobs = small_workload();
  SweepOptions options;
  options.threads = 4;
  const SweepResult sweep = run_sweep(acceptance_cells(jobs), options);

  LatencyHistogram decide, transition, admission;
  for (const SweepCellResult& result : sweep.results) {
    decide.merge(result.decide);
    transition.merge(result.transition);
    admission.merge(result.admission);
  }
  EXPECT_TRUE(sweep.decide == decide);
  EXPECT_TRUE(sweep.transition == transition);
  EXPECT_TRUE(sweep.admission == admission);
  EXPECT_GT(sweep.decide.count(), 0u);
}

TEST(Sweep, ConfigErrorIsolatedToItsCell) {
  const JobSet jobs = small_workload();
  std::vector<SweepCellSpec> cells = acceptance_cells(jobs);
  SweepCellSpec bad;
  bad.id = "bogus_cell";
  bad.workload_label = "thm2";
  bad.jobs = &jobs;
  bad.scheduler = "no-such-scheduler";
  cells.insert(cells.begin() + 3, bad);
  SweepCellSpec mismatched;
  mismatched.id = "profit_on_event";
  mismatched.workload_label = "thm2";
  mismatched.jobs = &jobs;
  mismatched.scheduler = "profit";
  mismatched.engine = EngineKind::kEvent;
  cells.push_back(mismatched);

  SweepOptions options;
  options.threads = 4;
  const SweepResult sweep = run_sweep(std::move(cells), options);
  EXPECT_EQ(sweep.failed_cells, 2u);
  std::size_t ok = 0;
  for (std::size_t i = 0; i < sweep.results.size(); ++i) {
    if (sweep.cells[i].id == "bogus_cell" ||
        sweep.cells[i].id == "profit_on_event") {
      EXPECT_TRUE(sweep.results[i].config_failed()) << sweep.cells[i].id;
      EXPECT_FALSE(sweep.results[i].error.empty());
    } else {
      EXPECT_TRUE(sweep.results[i].ok()) << sweep.cells[i].id;
      ++ok;
    }
  }
  EXPECT_EQ(ok, 24u);
}

TEST(Sweep, TelemetryOffMatchesTelemetryOnEventLogs) {
  const JobSet jobs = small_workload();
  SweepOptions on;
  on.threads = 2;
  on.capture_events = true;
  SweepOptions off = on;
  off.telemetry = false;

  const SweepResult with = run_sweep(acceptance_cells(jobs), on);
  const SweepResult without = run_sweep(acceptance_cells(jobs), off);
  for (std::size_t i = 0; i < with.results.size(); ++i) {
    EXPECT_EQ(with.results[i].events_jsonl, without.results[i].events_jsonl)
        << with.cells[i].id;
  }
  EXPECT_EQ(without.decide.count(), 0u);
}

// --------------------------------------------------------------------------
// Report round-trip and diff
// --------------------------------------------------------------------------

SweepReportDoc report_roundtrip(const SweepResult& sweep) {
  std::ostringstream out;
  write_sweep_report(out, sweep);
  std::istringstream in(out.str());
  JsonlError error;
  const auto doc = parse_sweep_report(in, &error);
  EXPECT_TRUE(doc.has_value()) << error.message;
  return doc.value_or(SweepReportDoc{});
}

TEST(SweepReport, RoundTripPreservesCellsAndSummary) {
  const JobSet jobs = small_workload();
  SweepOptions options;
  options.threads = 2;
  const SweepResult sweep = run_sweep(acceptance_cells(jobs), options);
  const SweepReportDoc doc = report_roundtrip(sweep);

  EXPECT_EQ(doc.header.at("schema").as_string(), kSweepReportSchema);
  ASSERT_EQ(doc.cells.size(), sweep.cells.size());
  for (std::size_t i = 0; i < doc.cells.size(); ++i) {
    EXPECT_EQ(doc.cells[i].at("id").as_string(), sweep.cells[i].id);
  }
  ASSERT_TRUE(doc.has_summary());
  EXPECT_EQ(doc.summary.at("rollups").at("config_errors").as_number(), 0.0);
  // The summary histogram is the exact merge of the per-cell histograms.
  const JsonValue& merged = doc.summary.at("decide_ns");
  EXPECT_EQ(merged.at("count").as_number(),
            static_cast<double>(sweep.decide.count()));
  EXPECT_EQ(merged.at("p99").as_number(),
            static_cast<double>(sweep.decide.percentile_ns(0.99)));
  EXPECT_FALSE(format_sweep_report(doc).empty());
}

TEST(SweepReport, CellLinesCarryTheirOwnCounters) {
  const JobSet jobs = small_workload();
  SweepOptions options;
  options.threads = 2;
  const SweepResult sweep = run_sweep(acceptance_cells(jobs), options);
  const SweepReportDoc doc = report_roundtrip(sweep);
  ASSERT_EQ(doc.cells.size(), sweep.results.size());
  for (std::size_t i = 0; i < doc.cells.size(); ++i) {
    const JsonValue* counters = doc.cells[i].find("counters");
    ASSERT_NE(counters, nullptr) << sweep.cells[i].id;
    ASSERT_EQ(counters->members().size(), sweep.results[i].counters.size());
    for (const auto& [name, value] : sweep.results[i].counters) {
      EXPECT_EQ(counters->at(name).as_number(), value)
          << sweep.cells[i].id << " " << name;
    }
  }
  // Cell lines written before cells carried counters still parse.
  std::istringstream old_cell(
      "{\"schema\":\"dagsched.sweep/1\",\"kind\":\"header\"}\n"
      "{\"kind\":\"cell\",\"id\":\"a\",\"ok\":true}\n");
  const auto parsed = parse_sweep_report(old_cell);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->cells.size(), 1u);
  EXPECT_EQ(parsed->cells[0].find("counters"), nullptr);
  EXPECT_FALSE(format_sweep_report(*parsed).empty());
}

TEST(SweepReport, ParserRejectsMalformedInput) {
  JsonlError error;
  std::istringstream empty("");
  EXPECT_FALSE(parse_sweep_report(empty, &error).has_value());
  EXPECT_EQ(error.line, 1u);

  std::istringstream wrong_schema(
      "{\"schema\":\"dagsched.run_report/1\",\"kind\":\"header\"}\n");
  EXPECT_FALSE(parse_sweep_report(wrong_schema, &error).has_value());

  std::istringstream bad_json(
      "{\"schema\":\"dagsched.sweep/1\",\"kind\":\"header\"}\n"
      "{\"t\":1,x}\n");
  EXPECT_FALSE(parse_sweep_report(bad_json, &error).has_value());
  EXPECT_EQ(error.line, 2u) << error.message;
  EXPECT_EQ(error.column, 8u) << error.message;  // offset 7, 1-based
  EXPECT_EQ(error.message.find("line "), std::string::npos) << error.message;
}

/// Builds a minimal sweep doc with one cell from literal JSON.
SweepReportDoc doc_with_cell(double wall_ms, double p99_ns, double decisions,
                             const std::string& id = "cell_a") {
  SweepReportDoc doc;
  doc.header = json_parse(
                   "{\"schema\":\"dagsched.sweep/1\",\"kind\":\"header\","
                   "\"cells\":1}")
                   .value;
  std::ostringstream cell;
  cell << "{\"kind\":\"cell\",\"id\":\"" << id << "\",\"ok\":true,"
       << "\"wall_ms\":" << wall_ms << ",\"metrics\":{\"decisions\":"
       << decisions << ",\"completed\":5,\"jobs\":10,\"profit\":1.5},"
       << "\"failure\":\"none\",\"decide_ns\":{\"count\":100,\"p99\":"
       << p99_ns << "}}";
  const JsonParseResult parsed = json_parse(cell.str());
  EXPECT_TRUE(parsed.ok) << parsed.error;
  doc.cells.push_back(parsed.value);
  return doc;
}

TEST(SweepDiff, ClassifiesRegressionsImprovementsAndSemanticChanges) {
  const SweepReportDoc base = doc_with_cell(10.0, 4000.0, 100.0);

  // Identical -> ok.
  EXPECT_FALSE(diff_sweep_reports(base, base).regressed());

  // Wall +50% past the default 25% threshold -> perf regression.
  const SweepDiff slower =
      diff_sweep_reports(base, doc_with_cell(15.0, 4000.0, 100.0));
  EXPECT_EQ(slower.regressions, 1u);
  EXPECT_TRUE(slower.regressed());

  // Wall -50% -> improvement, not a failure.
  const SweepDiff faster =
      diff_sweep_reports(base, doc_with_cell(5.0, 4000.0, 100.0));
  EXPECT_EQ(faster.improved, 1u);
  EXPECT_FALSE(faster.regressed());

  // Decisions differ -> semantic change even though timing is identical.
  const SweepDiff semantic =
      diff_sweep_reports(base, doc_with_cell(10.0, 4000.0, 101.0));
  EXPECT_EQ(semantic.semantic_changes, 1u);
  EXPECT_TRUE(semantic.regressed());

  // Sub-floor baselines never classify on timing alone.
  const SweepDiff noise = diff_sweep_reports(
      doc_with_cell(0.2, 100.0, 100.0), doc_with_cell(0.9, 400.0, 100.0));
  EXPECT_EQ(noise.regressions, 0u);
  EXPECT_FALSE(noise.regressed());
}

TEST(SweepDiff, NewAndGoneCellsAreInformational) {
  SweepReportDoc base = doc_with_cell(10.0, 4000.0, 100.0);
  SweepReportDoc current = doc_with_cell(10.0, 4000.0, 100.0, "cell_b");
  const SweepDiff diff = diff_sweep_reports(base, current);
  EXPECT_FALSE(diff.regressed());
  std::map<std::string, SweepDiffClass> classes;
  for (const SweepDiffRow& row : diff.rows) classes[row.id] = row.klass;
  EXPECT_EQ(classes.at("cell_a"), SweepDiffClass::kGone);
  EXPECT_EQ(classes.at("cell_b"), SweepDiffClass::kNew);
}

/// A dagsched.bench_report/1 document with the given measurement rows.
JsonValue bench_report(const std::string& rows) {
  const JsonParseResult parsed = json_parse(
      "{\"schema\":\"dagsched.bench_report/1\",\"measurements\":[" + rows +
      "]}");
  EXPECT_TRUE(parsed.ok) << parsed.error;
  return parsed.value;
}

std::string bench_row(const std::string& name, double real_time_ns,
                      const std::string& counters = "{}",
                      bool aggregate = false) {
  std::ostringstream row;
  row << "{\"name\":\"" << name << "\",\"real_time_ns\":" << real_time_ns
      << ",\"aggregate\":" << (aggregate ? "true" : "false")
      << ",\"counters\":" << counters << "}";
  return row.str();
}

JsonValue bench_doc(double real_time_ns) {
  return bench_report(
      bench_row("decide_hot", real_time_ns, "{\"decide_p99_ns\":1234.0}"));
}

std::map<std::string, SweepDiffClass> classes_of(const SweepDiff& diff) {
  std::map<std::string, SweepDiffClass> classes;
  for (const SweepDiffRow& row : diff.rows) classes[row.id] = row.klass;
  return classes;
}

TEST(SweepDiff, BenchReportsUseTheSameThresholdPolicy) {
  const JsonValue base = bench_doc(1'000'000.0);
  EXPECT_FALSE(diff_bench_reports(base, bench_doc(1'100'000.0)).regressed());
  EXPECT_FALSE(diff_bench_reports(base, bench_doc(1'200'000.0)).regressed());
  const SweepDiff slower = diff_bench_reports(base, bench_doc(1'500'000.0));
  EXPECT_EQ(slower.regressions, 1u);
  EXPECT_EQ(slower.exit_code(/*warn_only=*/false), 1);
  // --warn-only reports the regression but never fails the gate.
  EXPECT_EQ(slower.exit_code(/*warn_only=*/true), 0);
  const SweepDiff wider = diff_bench_reports(base, bench_doc(1'500'000.0),
                                             {.threshold = 0.6});
  EXPECT_FALSE(wider.regressed());

  // Added and retired measurement names are informational.
  const SweepDiff added = diff_bench_reports(
      base, bench_report(bench_row("decide_hot", 1'000'000.0,
                                   "{\"decide_p99_ns\":1234.0}") +
                         "," + bench_row("scale/100000", 3.4e9)));
  EXPECT_FALSE(added.regressed());
  EXPECT_EQ(classes_of(added).at("scale/100000"), SweepDiffClass::kNew);
  const SweepDiff retired = diff_bench_reports(
      bench_report(bench_row("kept", 100.0) + "," + bench_row("retired", 9.0)),
      bench_report(bench_row("kept", 100.0)));
  EXPECT_FALSE(retired.regressed());
  EXPECT_EQ(classes_of(retired).at("retired"), SweepDiffClass::kGone);

  // _ns counters gate like real_time_ns; a counter that appears is new.
  const SweepDiff p99 = diff_bench_reports(
      bench_report(bench_row("telemetry/50", 1e5, "{\"decide_p99_ns\":100}")),
      bench_report(bench_row("telemetry/50", 1e5, "{\"decide_p99_ns\":200}")));
  EXPECT_EQ(p99.regressions, 1u);
  EXPECT_EQ(classes_of(p99).at("telemetry/50:decide_p99_ns"),
            SweepDiffClass::kPerfRegression);
  const SweepDiff appeared = diff_bench_reports(
      bench_report(bench_row("telemetry/50", 1e5)),
      bench_report(bench_row("telemetry/50", 1e5, "{\"decide_p99_ns\":200}")));
  EXPECT_FALSE(appeared.regressed());
  EXPECT_EQ(classes_of(appeared).at("telemetry/50:decide_p99_ns"),
            SweepDiffClass::kNew);

  // Throughput counters are not latencies and are never compared.
  const SweepDiff throughput = diff_bench_reports(
      bench_report(bench_row("paper_s/50", 1e5, "{\"items_per_second\":2e6}")),
      bench_report(bench_row("paper_s/50", 1e5, "{\"items_per_second\":1e6}")));
  EXPECT_FALSE(throughput.regressed());
  EXPECT_EQ(throughput.rows.size(), 1u);
}

TEST(SweepDiff, EmptyBenchReportIsMalformed) {
  // Without this check an empty current report passes the gate with every
  // baseline row merely "gone".
  const JsonValue full = bench_doc(1'000'000.0);
  const JsonValue empty = bench_report("");
  const JsonValue aggregates_only =
      bench_report(bench_row("decide_hot_mean", 1e6, "{}", /*aggregate=*/true));
  EXPECT_THROW(diff_bench_reports(full, empty), ParseError);
  EXPECT_THROW(diff_bench_reports(empty, full), ParseError);
  EXPECT_THROW(diff_bench_reports(full, aggregates_only), ParseError);
}

}  // namespace
}  // namespace dagsched
