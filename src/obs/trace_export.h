// Causal trace export: fuse the execution trace (SimResult::trace), the
// decision EventLog and the telemetry summary of one run into a single
// Chrome trace_event JSON document loadable in Perfetto / chrome://tracing.
//
// Track layout:
//   * pid 1 "machine": one thread track per processor, complete ("X")
//     slices for every executed interval (named "J<job>/N<node>", adjacent
//     same-node slices coalesced), plus instant events for proc-down /
//     proc-up fault transitions on the affected processor's track;
//   * pid 2 "jobs": one async ("b"/"e", id = job) track per job spanning
//     arrival -> complete/expire, plus thread-scoped instant events for
//     every job-attributed decision (admit/defer/drop/schedule/preempt,
//     node-restart, work-overrun, readmit-fail) on a per-job thread track;
//   * engine-abort becomes a global instant.
//
// The telemetry summary (decide histogram, run wall time) is wall-clock,
// not simulation-time, so it rides along in "otherData" rather than on
// the timeline.  One simulated time unit maps to kTraceMicrosPerTimeUnit
// trace microseconds.
//
// The same header hosts diff_event_logs(), the aligned comparison of two
// decision event logs behind `dagsched trace diff` and the cross-engine
// equivalence tests: it reports the first diverging event plus per-kind
// count deltas.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "job/job.h"
#include "obs/event_log.h"
#include "sim/outcome.h"
#include "util/json.h"
#include "util/types.h"

namespace dagsched {

class TelemetryRecorder;

/// Trace timestamps are microseconds; one simulated time unit becomes 1 ms
/// so slot-scale structure is visible at Perfetto's default zoom.
inline constexpr double kTraceMicrosPerTimeUnit = 1000.0;

struct TraceExportInputs {
  const JobSet* jobs = nullptr;       // required
  const SimResult* result = nullptr;  // required (trace + outcomes)
  /// Optional: decision/fault instants and exact expiry times for the job
  /// tracks.  Without it only the machine tracks and outcome-derived job
  /// spans are emitted.
  const EventLog* events = nullptr;
  /// Optional: the run's telemetry recorder; its telemetry_to_json section
  /// (decide histogram, run wall time) is recorded into "otherData".
  const TelemetryRecorder* telemetry = nullptr;
  ProcCount m = 1;
  /// Free-form run label recorded in "otherData" (workload path, engine).
  std::string label;
};

/// Builds the Chrome trace_event document: an object with "traceEvents"
/// (chronologically sorted after the metadata prelude), "displayTimeUnit"
/// and "otherData".
JsonValue export_chrome_trace(const TraceExportInputs& inputs);

// ---------------------------------------------------------------------------
// Event-log diff
// ---------------------------------------------------------------------------

struct EventLogDiffOptions {
  /// Compare only the scheduler-policy subsequence (admit/defer/drop/
  /// schedule) by (kind, job, reason), ignoring engine lifecycle timing.
  /// This is the cross-engine comparison mode: on integral workloads the
  /// two engines must agree on every policy decision even though their
  /// event timestamps and lifecycle interleavings differ.  It tolerates a
  /// trailing run of end-of-run drops in the longer log (the event engine
  /// drains deadline expiries after the slot engine has already halted).
  bool decisions_only = false;
};

struct EventLogDiff {
  static constexpr std::size_t kNoDivergence =
      static_cast<std::size_t>(-1);

  /// Index (into the compared sequences) of the first diverging event;
  /// kNoDivergence when one sequence is a clean prefix of the other or
  /// they are identical.
  std::size_t first_divergence = kNoDivergence;
  /// Human-readable description of the divergence (empty when none).
  std::string description;
  /// Lengths of the compared (possibly filtered) sequences.
  std::size_t lhs_events = 0;
  std::size_t rhs_events = 0;
  /// Per-kind event counts over the compared sequences: (kind name, lhs
  /// count, rhs count), sorted by kind name, only kinds present in either.
  struct KindDelta {
    std::string kind;
    std::size_t lhs = 0;
    std::size_t rhs = 0;
  };
  std::vector<KindDelta> kind_deltas;
  /// Events in the longer log past the common prefix that the options
  /// forgave (tail drops); 0 otherwise.  An unforgiven length mismatch is
  /// reported as a divergence at the shorter log's end.
  std::size_t forgiven_tail = 0;

  bool diverged() const { return first_divergence != kNoDivergence; }
  /// Equivalent under the options: no divergence (forgiven tail events are
  /// allowed).
  bool identical() const { return !diverged(); }
};

EventLogDiff diff_event_logs(const std::vector<DecisionEvent>& lhs,
                             const std::vector<DecisionEvent>& rhs,
                             const EventLogDiffOptions& options = {});

/// Multi-line human-readable rendering (the `dagsched trace diff` output).
std::string format_event_log_diff(const EventLogDiff& diff,
                                  std::string_view lhs_name,
                                  std::string_view rhs_name);

}  // namespace dagsched
