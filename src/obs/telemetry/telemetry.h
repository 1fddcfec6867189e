// Runtime telemetry: scheduler-overhead histograms, periodic JSONL
// snapshots, and bytes/job memory accounting.
//
// The PR-1 obs stack records *what happened* (counters, decision events);
// this layer records *how fast and how big the scheduler itself is over
// time* -- the overhead distributions production DAG schedulers (DAGPS) and
// the simulator-survey literature treat as primary outputs, and the
// prerequisite for the ROADMAP's `dagsched serve` p99-decide gate and the
// million-job bytes/job budgets.
//
// A TelemetryRecorder is owned by whoever drives a run (CLI, bench, test)
// and handed to the SimKernel through SimOptions::telemetry (nullptr =
// off, the default -- the kernel then takes exactly the seed code path and
// decision logs stay byte-identical; scripts/decision_parity.sh proves the
// enabled path changes nothing either).  The kernel feeds it:
//
//   * per-decide() wall cost        -> decide_histogram()
//   * per-transition-delivery cost  -> transition_histogram()
//   * per-arrival admission cost    -> admission_histogram()
//     (UnfoldingState construction + scheduler on_arrival)
//
// and, at every decision point, offers a snapshot opportunity.  When a
// snapshot is due (simulated-time or wall-clock interval) the kernel fills
// a TelemetrySample with its live gauges and the recorder appends one
// versioned "dagsched.telemetry/1" JSON object to the output stream -- a
// streaming time-series consumable mid-run (`dagsched top out.jsonl`).
// A final snapshot is always emitted at kernel finish().
//
// Timing uses std::chrono::steady_clock read pairs around the measured
// region; each record_*_since() reads the clock once and doubles as the
// wall-interval check, so an enabled run pays two clock reads per decision
// and one per arrival/transition batch.  Like the rest of the obs layer
// the recorder is single-threaded: one per run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/telemetry/latency_histogram.h"
#include "util/json.h"

namespace dagsched {

inline constexpr std::string_view kTelemetrySchema = "dagsched.telemetry/1";

struct TelemetryOptions {
  /// Snapshot sink (JSONL, one object per line).  Null = histograms only:
  /// benches use this mode to extract decide_p99_ns without any I/O.
  std::ostream* out = nullptr;
  /// Emit a snapshot every `sim_interval` simulated time units (0 = off).
  double sim_interval = 0.0;
  /// Emit a snapshot every `wall_interval_ns` wall nanoseconds (0 = off).
  /// Both intervals 0 with `out` set = only the final snapshot.
  std::uint64_t wall_interval_ns = 0;
  /// Include the process RSS gauge (reads /proc/self/statm; 0 where
  /// unavailable).  Off for deterministic-output tests.
  bool include_rss = true;
};

/// Live gauges the kernel samples at a snapshot point.  All byte figures
/// are container *capacities* (allocated, not live) -- the quantity the
/// million-job memory budget constrains.
struct TelemetrySample {
  double sim_time = 0.0;
  bool final_snapshot = false;

  std::uint64_t decisions = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t completions = 0;
  std::uint64_t expiries = 0;
  std::uint64_t transitions = 0;

  std::size_t jobs_in_flight = 0;  // active set: jobs that can still earn
  std::size_t jobs_total = 0;
  std::size_t queue_depth = 0;  // scheduler-reported queued jobs

  std::size_t kernel_bytes = 0;     // kernel bookkeeping containers
  std::size_t unfolding_bytes = 0;  // all live UnfoldingState arenas
  std::size_t scheduler_bytes = 0;  // scheduler-reported queue/state bytes
  // The loaded JobSet (JobSet::input_bytes()).  Not part of tracked_bytes,
  // so RSS - (tracked + input) is what no gauge accounts for.
  std::size_t input_bytes = 0;
};

class TelemetryRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  explicit TelemetryRecorder(TelemetryOptions options = {});

  /// Called by the kernel at begin(): stamps the wall-clock origin and the
  /// rate/interval baselines.  Histograms are NOT reset -- a bench reusing
  /// one recorder across iterations accumulates; callers wanting a fresh
  /// distribution construct a fresh recorder (or call reset()).
  void begin_run(double sim_start);

  // -- Hot-path recording (one Clock::now() read each) ----------------------
  void record_decide_since(Clock::time_point start) {
    record_into(decide_, start);
  }
  void record_transition_since(Clock::time_point start) {
    record_into(transition_, start);
  }
  void record_admission_since(Clock::time_point start) {
    record_into(admission_, start);
  }

  /// Whether a periodic snapshot is due at simulated time `sim_now`.  Wall
  /// deadlines are evaluated against the timestamp of the latest
  /// record_*_since() call, so this reads no clock.
  bool snapshot_due(double sim_now) const {
    if (options_.out == nullptr) return false;
    if (options_.sim_interval > 0.0 && sim_now >= next_sim_emit_) return true;
    return options_.wall_interval_ns > 0 &&
           wall_ns(last_event_) >= next_wall_emit_ns_;
  }

  /// Appends one schema-versioned JSONL snapshot and advances the interval
  /// deadlines.  Also retained as last_sample() for the run-report section.
  void emit_snapshot(const TelemetrySample& sample);

  /// Stamps the run's wall time and emits the final snapshot (always,
  /// interval regardless) when a sink is attached; retains the sample
  /// either way.
  void finish_run(TelemetrySample sample);

  // -- Introspection ---------------------------------------------------------
  const LatencyHistogram& decide_histogram() const { return decide_; }
  const LatencyHistogram& transition_histogram() const { return transition_; }
  const LatencyHistogram& admission_histogram() const { return admission_; }
  std::size_t snapshots_emitted() const { return seq_; }
  bool has_sample() const { return last_sample_.has_value(); }
  const TelemetrySample& last_sample() const { return *last_sample_; }
  /// Wall time from begin_run() to finish_run(); 0 before a run finishes.
  std::uint64_t run_wall_ns() const { return run_wall_ns_; }

  /// Zeroes histograms and snapshot bookkeeping (the sink stays attached).
  void reset();

 private:
  void record_into(LatencyHistogram& histogram, Clock::time_point start) {
    const Clock::time_point now = Clock::now();
    histogram.record(static_cast<std::uint64_t>(std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(now - start)
               .count())));
    last_event_ = now;
  }
  std::uint64_t wall_ns(Clock::time_point t) const {
    return static_cast<std::uint64_t>(std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(t - run_start_)
               .count()));
  }
  JsonValue build_snapshot(const TelemetrySample& sample,
                           std::uint64_t now_ns);
  void write_snapshot(const TelemetrySample& sample, std::uint64_t now_ns);

  TelemetryOptions options_;
  LatencyHistogram decide_;
  LatencyHistogram transition_;
  LatencyHistogram admission_;

  Clock::time_point run_start_{};
  Clock::time_point last_event_{};
  double next_sim_emit_ = 0.0;
  std::uint64_t next_wall_emit_ns_ = 0;
  std::size_t seq_ = 0;
  // Rate baseline: the previous snapshot's event totals and wall time.
  std::uint64_t prev_events_ = 0;
  std::uint64_t prev_wall_ns_ = 0;
  std::uint64_t run_wall_ns_ = 0;
  std::optional<TelemetrySample> last_sample_;
};

/// Encodes one LatencyHistogram as the summary object used in snapshots
/// and run reports: count/overflow/min/mean/max plus p50/p90/p99/p999.
JsonValue latency_histogram_to_json(const LatencyHistogram& histogram);

/// The run-report "telemetry" section: the run's wall time (`wall_ms`),
/// the three overhead histograms, and the final sample's gauges (bytes/job,
/// queue depth, jobs in flight).
JsonValue telemetry_to_json(const TelemetryRecorder& recorder);

/// Parses a dagsched.telemetry/1 JSONL stream back into one JsonValue per
/// snapshot (`dagsched top`, tests).  Rejects the first malformed or
/// wrong-schema line, with its position in `error`.
std::optional<std::vector<JsonValue>> parse_telemetry_jsonl(
    std::istream& in, JsonlError* error = nullptr);

/// Current process resident-set size in bytes (/proc/self/statm); 0 when
/// unavailable.
std::size_t read_rss_bytes();

}  // namespace dagsched
