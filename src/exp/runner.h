// Experiment harness: run (workload x scheduler x machine) combinations,
// bracket OPT, aggregate repeated trials.
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <string>

#include "job/job.h"
#include "sim/kernel/engine_factory.h"
#include "sim/node_selector.h"
#include "sim/scheduler.h"
#include "util/stats.h"
#include "workload/workload.h"

namespace dagsched {

/// Factory so each trial gets a fresh scheduler instance (stateless reuse
/// also works via reset(); factories keep trials independent).
using SchedulerFactory = std::function<std::unique_ptr<SchedulerBase>()>;

/// Scheduler registry by name -- "s" (the paper's Section-3 scheduler),
/// "s-wc" (work-conserving extension), "s-noadm" (admission off),
/// "profit" (Section-5 slot scheduler, slot-engine only), "edf", "llf",
/// "hdf", "fcfs", "federated", "equi", "equi-profit".  `eps` parameterizes
/// the paper schedulers.  Throws std::invalid_argument on unknown names.
std::unique_ptr<SchedulerBase> make_named_scheduler(const std::string& name,
                                                    double eps = 0.5);

/// All names make_named_scheduler accepts.
std::vector<std::string> named_scheduler_list();

/// Empty when scheduler `name` can run on `engine`; otherwise the reason.
/// The Section-5 profit scheduler plans per unit slot, so it needs the slot
/// engine.
std::string scheduler_engine_error(const std::string& name, EngineKind engine);

struct RunConfig {
  ProcCount m = 16;
  double speed = 1.0;
  SelectorKind selector = SelectorKind::kFifo;
  std::uint64_t selector_seed = 0;
  /// Stepping driver to lay over the shared simulation kernel
  /// (EngineKind::kSlot is required by ProfitScheduler).
  EngineKind engine = EngineKind::kEvent;
  /// Observability sink forwarded to the engine (null = off).
  const ObsSink* obs = nullptr;
  /// Fault injector forwarded to the engine (null = no faults).
  const FaultInjector* faults = nullptr;
  /// Runtime-telemetry recorder forwarded to the engine (null = off).
  TelemetryRecorder* telemetry = nullptr;
};

struct RunMetrics {
  Profit profit = 0.0;
  /// profit / sum of peaks.
  double fraction = 0.0;
  std::size_t completed = 0;
  std::size_t num_jobs = 0;
  std::size_t decisions = 0;
  double busy_proc_time = 0.0;
  Time end_time = 0.0;
  /// Work discarded by restart-from-zero fault recovery.
  Work lost_work = 0.0;
  std::size_t node_preemptions = 0;
  std::size_t job_preemptions = 0;
  /// Overload-degradation counters (decide-budget breaches and the jobs
  /// shed in response); all zero when the budget is off.
  std::size_t overload_breaches = 0;
  std::size_t overload_sheds = 0;
  std::size_t overload_recoveries = 0;
  /// kNone unless the run terminated abnormally (livelock guard, horizon).
  SimFailureKind failure = SimFailureKind::kNone;
  std::string failure_message;
};

/// One simulation with the given engine configuration.
RunMetrics run_workload(const JobSet& jobs, SchedulerBase& scheduler,
                        const RunConfig& config);

/// Bracket of the clairvoyant optimum:
///   lower = best profit achieved by the clairvoyant offline baselines
///           (EDF / HDF / clairvoyant-LLF with critical-path node choice),
///   upper = interval-capacity bound (opt/upper_bound.h); lp_used is false
///           when the job cap left it at the trivial sum of feasible peaks.
struct OptBracket {
  Profit lower = 0.0;
  Profit upper = 0.0;
  std::string lower_scheduler;
  bool lp_used = false;

  /// Pessimistic (largest possible) competitive ratio of `alg_profit`.
  double ratio_upper(Profit alg_profit) const {
    return alg_profit > 0.0 ? upper / alg_profit
                            : std::numeric_limits<double>::infinity();
  }
  /// Optimistic ratio (how far the algorithm is from what we *witnessed*).
  double ratio_lower(Profit alg_profit) const {
    return alg_profit > 0.0 ? lower / alg_profit
                            : std::numeric_limits<double>::infinity();
  }
};

OptBracket estimate_opt(const JobSet& jobs, ProcCount m,
                        double opt_speed = 1.0);

/// Offline clairvoyant planning heuristic: consider jobs in density (p/W)
/// order; tentatively accept each and run clairvoyant EDF on the accepted
/// subset alone -- keep the job only if *every* accepted job still
/// completes on time.  The resulting all-deadlines-met profit is a valid
/// lower bound on OPT, usually far above any purely online witness under
/// overload (an online policy wastes capacity on jobs it must later
/// abandon).  O(n) simulations.
Profit offline_greedy_lower_bound(const JobSet& jobs, ProcCount m,
                                  double opt_speed = 1.0);

// ---------------------------------------------------------------------------
// Repeated trials
// ---------------------------------------------------------------------------

struct TrialConfig {
  WorkloadConfig workload;
  RunConfig run;
  std::size_t trials = 8;
  std::uint64_t base_seed = 42;
  /// Also compute the OPT bracket per trial (LP cost: only for modest n).
  bool with_opt = false;
};

struct TrialStats {
  RunningStats profit;
  RunningStats fraction;
  RunningStats completed_frac;
  RunningStats ratio_ub;     // upper/alg, only when with_opt
  RunningStats ratio_wit;    // lower/alg ("witnessed" ratio)
  std::size_t trials = 0;
};

/// Runs `config.trials` independent seeds, each with its own scheduler
/// from the factory.
TrialStats run_trials(const TrialConfig& config,
                      const SchedulerFactory& factory);

}  // namespace dagsched
