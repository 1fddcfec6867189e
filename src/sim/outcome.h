// Simulation results: per-job outcomes and aggregate metrics.
#pragma once

#include <string>
#include <vector>

#include "job/job.h"
#include "sim/trace.h"
#include "util/types.h"

namespace dagsched {

/// Why a run failed to reach quiescence.  Engines no longer abort the
/// process on these conditions: they finalize whatever outcomes exist,
/// stamp the failure, and return, so callers (the CLI, sweeps) can report
/// the error and keep going.
enum class SimFailureKind {
  kNone,            // run completed normally
  kDecisionBudget,  // SimOptions::max_decisions exhausted (livelock guard)
  kHorizon,         // a slot run's derived horizon overran with jobs pending
  kBadAllocation,   // scheduler emitted a malformed allocation (overcommit,
                    // duplicate / unarrived / completed job, or zero procs)
};

const char* sim_failure_kind_name(SimFailureKind kind);

struct JobOutcome {
  bool completed = false;
  /// Absolute completion time (kTimeInfinity if incomplete).
  Time completion_time = kTimeInfinity;
  /// Profit actually earned: p_i(completion - release), or 0 if incomplete.
  Profit profit = 0.0;
  /// Work units executed on this job (may be > 0 for incomplete jobs).
  Work executed = 0.0;
  /// Absolute time of first execution (kTimeInfinity if never ran).
  Time first_start = kTimeInfinity;
};

struct SimResult {
  std::vector<JobOutcome> outcomes;
  Profit total_profit = 0.0;
  std::size_t jobs_completed = 0;
  /// Number of scheduler decision points the engine evaluated.
  std::size_t decisions = 0;
  /// Node preemptions: a node was executing, is unfinished, and stops
  /// executing at a decision boundary.
  std::size_t node_preemptions = 0;
  /// Job preemptions: a job held processors, is unfinished, and loses all
  /// of them at a decision boundary.
  std::size_t job_preemptions = 0;
  /// Total processor-time spent executing nodes (sum over processors).
  double busy_proc_time = 0.0;
  /// Time of the last event processed.
  Time end_time = 0.0;
  /// Work discarded by restart-from-zero fault recovery (fault injection
  /// only); work conservation holds as executed work = consumed work +
  /// lost_work.
  Work lost_work = 0.0;
  /// Overload degradation (SimOptions::decide_budget_ns): decisions that
  /// exceeded the wall-clock budget, jobs shed in response, and recoveries
  /// (first under-budget decision after a breach).  All zero with the
  /// budget off.
  std::size_t overload_breaches = 0;
  std::size_t overload_sheds = 0;
  std::size_t overload_recoveries = 0;
  /// kNone unless the run terminated abnormally (see SimFailureKind).
  SimFailureKind failure = SimFailureKind::kNone;
  /// Human-readable diagnosis when failure != kNone.
  std::string failure_message;
  /// Populated when SimOptions::record_trace is set.
  Trace trace;

  bool failed() const { return failure != SimFailureKind::kNone; }
};

/// Fraction of peak profit earned: total_profit / sum of p_i.
double profit_fraction(const SimResult& result, const JobSet& jobs);

}  // namespace dagsched
