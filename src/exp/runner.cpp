#include "exp/runner.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "baselines/equi.h"
#include "baselines/federated.h"
#include "baselines/list_scheduler.h"
#include "core/deadline_scheduler.h"
#include "core/profit_scheduler.h"
#include "opt/upper_bound.h"
#include "util/check.h"

namespace dagsched {

std::unique_ptr<SchedulerBase> make_named_scheduler(const std::string& name,
                                                    double eps) {
  const Params params = Params::from_epsilon(eps);
  if (name == "s") {
    return std::make_unique<DeadlineScheduler>(
        DeadlineSchedulerOptions{.params = params});
  }
  if (name == "s-wc") {
    return std::make_unique<DeadlineScheduler>(DeadlineSchedulerOptions{
        .params = params, .work_conserving = true});
  }
  if (name == "s-noadm") {
    return std::make_unique<DeadlineScheduler>(DeadlineSchedulerOptions{
        .params = params, .enforce_admission = false});
  }
  if (name == "profit") {
    return std::make_unique<ProfitScheduler>(
        ProfitSchedulerOptions{.params = params});
  }
  if (name == "edf") {
    return std::make_unique<ListScheduler>(
        ListSchedulerOptions{.policy = ListPolicy::kEdf});
  }
  if (name == "llf") {
    return std::make_unique<ListScheduler>(
        ListSchedulerOptions{.policy = ListPolicy::kLlf});
  }
  if (name == "hdf") {
    return std::make_unique<ListScheduler>(
        ListSchedulerOptions{.policy = ListPolicy::kHdf});
  }
  if (name == "fcfs") {
    return std::make_unique<ListScheduler>(
        ListSchedulerOptions{.policy = ListPolicy::kFcfs});
  }
  if (name == "federated") return std::make_unique<FederatedScheduler>();
  if (name == "equi") return std::make_unique<EquiScheduler>();
  if (name == "equi-profit") {
    return std::make_unique<EquiScheduler>(
        EquiOptions{.weight_by_profit = true});
  }
  throw std::invalid_argument("unknown scheduler '" + name + "'");
}

std::vector<std::string> named_scheduler_list() {
  return {"s",   "s-wc", "s-noadm", "profit",    "edf",        "llf",
          "hdf", "fcfs", "federated", "equi", "equi-profit"};
}

std::string scheduler_engine_error(const std::string& name,
                                   EngineKind engine) {
  if (name == "profit" && engine != EngineKind::kSlot) {
    return "scheduler 'profit' requires the slot engine";
  }
  return "";
}

RunMetrics run_workload(const JobSet& jobs, SchedulerBase& scheduler,
                        const RunConfig& config) {
  auto selector = make_selector(config.selector, config.selector_seed);
  SimOptions options;
  options.num_procs = config.m;
  options.speed = config.speed;
  options.obs = config.obs;
  options.faults = config.faults;
  options.telemetry = config.telemetry;
  const SimResult result =
      run_simulation(config.engine, jobs, scheduler, *selector, options);
  RunMetrics metrics;
  metrics.profit = result.total_profit;
  metrics.fraction = profit_fraction(result, jobs);
  metrics.completed = result.jobs_completed;
  metrics.num_jobs = jobs.size();
  metrics.decisions = result.decisions;
  metrics.busy_proc_time = result.busy_proc_time;
  metrics.end_time = result.end_time;
  metrics.lost_work = result.lost_work;
  metrics.node_preemptions = result.node_preemptions;
  metrics.job_preemptions = result.job_preemptions;
  metrics.overload_breaches = result.overload_breaches;
  metrics.overload_sheds = result.overload_sheds;
  metrics.overload_recoveries = result.overload_recoveries;
  metrics.failure = result.failure;
  metrics.failure_message = result.failure_message;
  return metrics;
}

Profit offline_greedy_lower_bound(const JobSet& jobs, ProcCount m,
                                  double opt_speed) {
  // Candidate order: classic density p/W, descending.
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&jobs](std::size_t a, std::size_t b) {
    const double da = jobs[a].peak_profit() / jobs[a].work();
    const double db = jobs[b].peak_profit() / jobs[b].work();
    if (da != db) return da > db;
    return a < b;
  });

  // The bound is the *earned* profit of a concrete clairvoyant schedule on
  // an accepted subset -- sound for every profit shape (a job finishing
  // past its plateau contributes its decayed value, not its peak).  Hill
  // climb: keep a candidate only if the subset's simulated profit improves.
  auto earned_profit = [m, opt_speed](const JobSet& subset) {
    ListScheduler scheduler({ListPolicy::kEdf, true});
    auto selector = make_selector(SelectorKind::kCriticalPath);
    SimOptions options;
    options.num_procs = m;
    options.speed = opt_speed;
    return run_simulation(EngineKind::kEvent, subset, scheduler, *selector,
                          options)
        .total_profit;
  };

  std::vector<bool> accepted(jobs.size(), false);
  Profit best = 0.0;
  for (const std::size_t candidate : order) {
    // Skip jobs that cannot complete in isolation.
    if (!clairvoyantly_feasible(jobs[candidate], m, opt_speed)) continue;
    accepted[candidate] = true;
    JobSet subset;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (accepted[i]) subset.add(jobs[i]);
    }
    subset.finalize();
    const Profit profit = earned_profit(subset);
    if (profit > best + 1e-12) {
      best = profit;
    } else {
      accepted[candidate] = false;
    }
  }
  return best;
}

OptBracket estimate_opt(const JobSet& jobs, ProcCount m, double opt_speed) {
  OptBracket bracket;

  // Lower bound: clairvoyant offline baselines with critical-path node
  // selection (the strongest executor the machine model allows).
  struct Candidate {
    ListSchedulerOptions options;
    const char* label;
  };
  const Candidate candidates[] = {
      {{.policy = ListPolicy::kEdf}, "edf/critical-path"},
      {{.policy = ListPolicy::kHdf}, "hdf/critical-path"},
      {{.policy = ListPolicy::kLlf, .clairvoyant_laxity = true},
       "llf-clairvoyant/critical-path"},
  };
  RunConfig run;
  run.m = m;
  run.speed = opt_speed;
  run.selector = SelectorKind::kCriticalPath;
  for (const Candidate& candidate : candidates) {
    ListScheduler scheduler(candidate.options);
    const RunMetrics metrics = run_workload(jobs, scheduler, run);
    if (metrics.profit > bracket.lower) {
      bracket.lower = metrics.profit;
      bracket.lower_scheduler = candidate.label;
    }
  }
  // Offline planning witness: usually the strongest under overload.
  const Profit planned = offline_greedy_lower_bound(jobs, m, opt_speed);
  if (planned > bracket.lower) {
    bracket.lower = planned;
    bracket.lower_scheduler = "offline-greedy-plan";
  }

  // Upper bound: interval-capacity relaxation.
  const OptBound bound = compute_opt_upper_bound(jobs, m, opt_speed);
  bracket.upper = bound.value();
  bracket.lp_used = bound.lp_used;
  DS_CHECK_MSG(bracket.upper + 1e-6 >= bracket.lower,
               "OPT upper bound " << bracket.upper
                                  << " below witnessed lower bound "
                                  << bracket.lower);
  return bracket;
}

TrialStats run_trials(const TrialConfig& config,
                      const SchedulerFactory& factory) {
  DS_CHECK(config.trials >= 1);
  TrialStats stats;
  stats.trials = config.trials;
  for (std::size_t i = 0; i < config.trials; ++i) {
    Rng rng(config.base_seed);
    Rng trial_rng = rng.split(i);
    const JobSet jobs = generate_workload(trial_rng, config.workload);
    if (jobs.empty()) continue;
    auto scheduler = factory();
    const RunMetrics metrics = run_workload(jobs, *scheduler, config.run);

    double ratio_ub = 0.0;
    double ratio_wit = 0.0;
    bool have_opt = false;
    if (config.with_opt) {
      const OptBracket bracket = estimate_opt(jobs, config.run.m);
      ratio_ub = bracket.ratio_upper(metrics.profit);
      ratio_wit = bracket.ratio_lower(metrics.profit);
      have_opt = true;
    }

    stats.profit.add(metrics.profit);
    stats.fraction.add(metrics.fraction);
    stats.completed_frac.add(
        metrics.num_jobs > 0
            ? static_cast<double>(metrics.completed) /
                  static_cast<double>(metrics.num_jobs)
            : 0.0);
    if (have_opt && std::isfinite(ratio_ub)) {
      stats.ratio_ub.add(ratio_ub);
      stats.ratio_wit.add(ratio_wit);
    }
  }
  return stats;
}

}  // namespace dagsched
