// Parallel sweep executor: fan a list of independent simulation cells
// (workload x scheduler x engine x fault mode) out across hardware threads
// from one shared cursor, while keeping every run's observability state
// isolated per cell.
//
// The determinism contract (docs/SWEEP.md) is non-negotiable: a cell's
// event log is byte-identical to the same cell run serially, regardless of
// thread count or completion order.  It holds because
//   * every input that shapes a cell's decision sequence (workload,
//     scheduler, eps, engine, m, speed, selector seed, fault spec) is baked
//     into the SweepCellSpec *before* execution starts -- nothing is derived
//     from worker identity or completion order;
//   * every mutable run object (scheduler, fault injector, node selector,
//     EventLog, MetricRegistry, TelemetryRecorder) is constructed fresh
//     inside the cell, never shared across cells;
//   * results land in a pre-sized slot vector indexed by cell id, and all
//     cross-cell merging (LatencyHistogram bucket addition, counter
//     rollups) is commutative + associative, so merge order is irrelevant.
//
// Telemetry is the headline: each worker records per-cell decide /
// transition / admission latency histograms through an isolated
// TelemetryRecorder, and the merged fleet-level distributions (exact
// bucket-wise LatencyHistogram::merge) plus failure/shed rollups land in a
// versioned "dagsched.sweep/1" report (sweep_report.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "obs/counters.h"
#include "obs/telemetry/latency_histogram.h"

namespace dagsched {

/// One independent simulation to run.  `jobs` is a borrowed pointer to an
/// immutable workload (simulations only read it, so many cells may share
/// one JobSet across threads); the caller keeps it alive for the sweep.
struct SweepCellSpec {
  std::string id;              // unique tag, e.g. "s_event_thm2_none"
  std::string workload_label;  // path or label recorded in the report
  const JobSet* jobs = nullptr;

  std::string scheduler;  // make_named_scheduler name
  double eps = 0.5;
  EngineKind engine = EngineKind::kEvent;
  ProcCount m = 16;
  double speed = 1.0;
  SelectorKind selector = SelectorKind::kFifo;
  std::uint64_t selector_seed = 1;  // matches `dagsched run`

  std::string fault_label = "none";  // report tag ("none", "churn-zero", ...)
  std::string fault_spec;            // parse_fault_spec string; empty = off
};

/// Outcome of one cell.  `error` is non-empty for configuration failures
/// (unknown scheduler, malformed fault spec, engine/scheduler mismatch);
/// simulation-level failures surface through metrics.failure instead.
struct SweepCellResult {
  RunMetrics metrics;
  double wall_ms = 0.0;  // wall time of this cell's simulation

  // Per-cell overhead distributions from the cell's isolated recorder.
  LatencyHistogram decide;
  LatencyHistogram transition;
  LatencyHistogram admission;

  /// Serialized decision-event log (JSONL) when SweepOptions::capture_events
  /// is set; byte-identical to `dagsched run --events` on the same cell.
  std::string events_jsonl;

  /// Cell-local counter snapshot, sorted by name.
  std::vector<std::pair<std::string, double>> counters;

  std::string error;

  bool config_failed() const { return !error.empty(); }
  bool sim_failed() const {
    return !config_failed() && metrics.failure != SimFailureKind::kNone;
  }
  bool ok() const { return !config_failed() && !sim_failed(); }
};

/// Live progress snapshot handed to SweepOptions::on_progress after every
/// cell completion (under the executor's merge lock -- keep callbacks
/// cheap).
struct SweepProgress {
  std::size_t total = 0;
  std::size_t completed = 0;  // includes failed
  std::size_t failed = 0;     // config or simulation failures so far
  std::size_t running = 0;    // claimed minus completed
  double elapsed_sec = 0.0;
  double cells_per_sec = 0.0;
  /// Naive remaining/throughput estimate; 0 until the first completion.
  double eta_sec = 0.0;
  /// p99 of the decide-latency histogram merged over completed cells.
  std::uint64_t decide_p99_ns = 0;
};

struct SweepOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency() (min 1).
  std::size_t threads = 0;
  /// Keep each cell's event log (JSONL string) in its result slot.
  bool capture_events = false;
  /// Attach a per-cell TelemetryRecorder (decide/transition/admission
  /// histograms).  Off takes the exact seed kernel path (docs/SWEEP.md).
  bool telemetry = true;
  std::function<void(const SweepProgress&)> on_progress;
};

struct SweepResult {
  std::vector<SweepCellSpec> cells;
  std::vector<SweepCellResult> results;  // parallel to `cells`

  // Fleet-level merges, accumulated in cell-index order (bucket-wise
  // addition is order-independent; the fixed order keeps reports stable).
  LatencyHistogram decide;
  LatencyHistogram transition;
  LatencyHistogram admission;
  /// Counter rollup across cells; sorted by name.
  std::vector<std::pair<std::string, double>> counters;

  std::size_t threads = 0;
  double wall_ms = 0.0;         // whole-sweep wall time
  double serial_wall_ms = 0.0;  // sum of per-cell wall times
  std::size_t failed_cells = 0;

  /// Estimated parallel speedup: serial_wall_ms / wall_ms.
  double speedup() const {
    return wall_ms > 0.0 ? serial_wall_ms / wall_ms : 0.0;
  }
};

/// Runs one cell in isolation (also the executor's per-worker body, so the
/// serial path and the parallel path execute identical code).
SweepCellResult run_sweep_cell(const SweepCellSpec& spec,
                               const SweepOptions& options);

/// Runs every cell across `options.threads` workers, which claim cells in
/// index order from one shared cursor, and returns the merged result.
/// Cells must have non-null `jobs`.
SweepResult run_sweep(std::vector<SweepCellSpec> cells,
                      const SweepOptions& options);

}  // namespace dagsched
