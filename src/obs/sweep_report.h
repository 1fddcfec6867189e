// The "dagsched.sweep/1" merged sweep report: schema, parser, renderer,
// and the cross-run diff/regression classifier.
//
// A sweep report is JSONL -- streaming-friendly like the telemetry and
// decision-event formats, so a killed sweep still leaves every completed
// cell line on disk:
//
//   line 1:  {"schema":"dagsched.sweep/1","kind":"header","cells":N,...}
//   lines:   {"kind":"cell","id":...,"metrics":{...},"decide_ns":{...},...}
//   last:    {"kind":"summary","wall_ms":...,"speedup":...,"decide_ns":...}
//
// The summary's decide/transition/admission histograms are the exact
// bucket-wise merge (LatencyHistogram::merge) of the per-cell histograms,
// and its rollups aggregate per-cell metrics and failure kinds -- the
// fleet-level view production DAG schedulers (DAGPS) and workflow-benchmark
// suites treat as the primary artifact.  The writer lives with the sweep
// executor (exp/sweep/report_writer.h); this layer only needs util/json.
//
// `diff_sweep_reports` compares two reports cell-by-cell with the bench
// gate's threshold policy: new/gone cells are informational,
// wall-clock or decide-p99 past the threshold is a perf regression, and a
// *semantic* change (decisions/completions/profit/failure differ on the
// same cell -- simulated runs are deterministic, so any drift is a
// correctness signal) is flagged regardless of threshold.
// `diff_bench_reports` applies the identical policy to two
// dagsched.bench_report/1 documents (BENCH_engine.json snapshots); CI's
// blocking perf gate is `dagsched sweep diff` over those snapshots.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace dagsched {

inline constexpr std::string_view kSweepReportSchema = "dagsched.sweep/1";

struct SweepReportDoc {
  JsonValue header;               // the schema-bearing first line
  std::vector<JsonValue> cells;   // every "kind":"cell" line, in file order
  JsonValue summary;              // null when the sweep died before finish
  bool has_summary() const { return summary.is_object(); }
};

/// Parses a dagsched.sweep/1 JSONL stream.  Returns nullopt (with the
/// position and message in `error`) on malformed JSON, a wrong schema, or
/// a missing header; unknown "kind" lines are skipped for forward
/// compatibility.
std::optional<SweepReportDoc> parse_sweep_report(std::istream& in,
                                                 JsonlError* error = nullptr);

/// Human-readable rendering (`dagsched report SWEEP.jsonl`).
std::string format_sweep_report(const SweepReportDoc& doc);

// ---------------------------------------------------------------------------
// Cross-run regression diff
// ---------------------------------------------------------------------------

enum class SweepDiffClass {
  kOk,              // within threshold, semantics identical
  kImproved,        // faster than baseline past the threshold
  kPerfRegression,  // wall/p99 slower than baseline past the threshold
  kSemanticChange,  // decisions/completions/profit/failure differ
  kNew,             // only in the current report (informational)
  kGone,            // only in the baseline report (informational)
};

const char* sweep_diff_class_name(SweepDiffClass klass);

struct SweepDiffRow {
  std::string id;  // cell id, or bench measurement name
  SweepDiffClass klass = SweepDiffClass::kOk;
  /// What moved, e.g. "wall 12.1 ms -> 18.9 ms (+56%)"; empty for kOk.
  std::string detail;
};

struct SweepDiff {
  std::vector<SweepDiffRow> rows;  // baseline order, then new cells
  std::size_t regressions = 0;     // kPerfRegression rows
  std::size_t semantic_changes = 0;
  std::size_t improved = 0;

  /// True when the diff should fail a gate.
  bool regressed() const { return regressions > 0 || semantic_changes > 0; }
  /// `dagsched sweep diff` exit status: 1 on a gate failure, unless
  /// `warn_only` reports it without failing.
  int exit_code(bool warn_only) const {
    return regressed() && !warn_only ? 1 : 0;
  }
};

/// Threshold policy.  A sweep cell's wall time and decide p99 only
/// classify as regressed/improved when the baseline exceeds a fixed noise
/// floor, 1 ms and 1 us (sub-floor cells are too noisy to gate on).
struct SweepDiffOptions {
  double threshold = 0.25;  // allowed fractional slowdown
};

SweepDiff diff_sweep_reports(const SweepReportDoc& baseline,
                             const SweepReportDoc& current,
                             const SweepDiffOptions& options = {});

/// Same classification over two dagsched.bench_report/1 documents:
/// real_time_ns per non-aggregate measurement plus any counters ending in
/// `_ns` (keyed "name:counter").  Throws ParseError (source "baseline" or
/// "current") when an operand has no non-aggregate measurement: an empty
/// report would otherwise pass the gate with every row "gone".
SweepDiff diff_bench_reports(const JsonValue& baseline,
                             const JsonValue& current,
                             const SweepDiffOptions& options = {});

std::string format_sweep_diff(const SweepDiff& diff,
                              std::string_view baseline_label,
                              std::string_view current_label,
                              const SweepDiffOptions& options = {});

}  // namespace dagsched
