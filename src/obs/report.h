// Structured run reports: one JSON document per run merging the run
// configuration, SimResult aggregates, ScheduleMetrics, the counter
// registry, the telemetry summary (run wall time and decide histogram), and
// a time-sliced utilization / active-jobs timeline.
//
// The document is the machine-readable artifact of a run (the
// simulator-comparison literature's prerequisite for auditable cross-engine
// results); `dagsched run --obs out.json` writes it and `dagsched report
// out.json` pretty-prints it (including /2 documents).  The schema is
// versioned ("dagsched.run_report/3") and its top-level key set is locked by
// tests/test_obs_report.cpp -- extend by adding keys, never by repurposing
// existing ones; removing a key bumps the version.
//
// The same writer backs bench reports ("dagsched.bench_report/1") so perf
// measurements land in mechanically trackable files instead of ad-hoc
// stdout (bench/bench_engine_perf.cpp --out).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "job/job.h"
#include "obs/counters.h"
#include "obs/event_log.h"
#include "sim/metrics.h"
#include "sim/outcome.h"
#include "util/json.h"

namespace dagsched {

class TelemetryRecorder;

inline constexpr std::string_view kRunReportSchema = "dagsched.run_report/3";
inline constexpr std::string_view kBenchReportSchema =
    "dagsched.bench_report/1";

struct RunReportInputs {
  std::string scheduler;
  std::string engine;   // "event" or "slot"
  std::string workload; // instance label/path; may be empty
  ProcCount m = 1;
  double speed = 1.0;

  const JobSet* jobs = nullptr;     // required
  const SimResult* result = nullptr;  // required

  // Optional sections; omitted from the document when null.
  const ScheduleMetrics* metrics = nullptr;
  const MetricRegistry* registry = nullptr;
  const EventLog* events = nullptr;
  /// Runtime-telemetry recorder: adds a "telemetry" section with the run's
  /// wall time, the decide/transition/admission latency histograms and
  /// byte gauges.
  const TelemetryRecorder* telemetry = nullptr;
  std::string events_path;  // recorded in the document when non-empty
};

/// Builds the versioned run-report document.
JsonValue build_run_report(const RunReportInputs& inputs);

/// Human-readable rendering of a run report (the `dagsched report`
/// subcommand).  Accepts any document conforming to the run-report schema;
/// DS_CHECKs on schema mismatch are avoided -- unknown/missing sections are
/// skipped so newer documents render on older binaries.
std::string format_run_report(const JsonValue& report);

// ---------------------------------------------------------------------------
// Bench reports
// ---------------------------------------------------------------------------

struct BenchMeasurement {
  std::string name;
  double real_time_ns = 0.0;
  double cpu_time_ns = 0.0;
  std::uint64_t iterations = 0;
  bool aggregate = false;  // e.g. google-benchmark mean/median/stddev rows
  std::vector<std::pair<std::string, double>> counters;
};

/// Builds the versioned bench-report document.
JsonValue build_bench_report(std::string_view bench_name,
                             const std::vector<BenchMeasurement>& runs);

/// Human-readable rendering of a bench report (`dagsched report` on a
/// "dagsched.bench_report/1" document, e.g. BENCH_engine.json).
std::string format_bench_report(const JsonValue& report);

}  // namespace dagsched
