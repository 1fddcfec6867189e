#include "workload/workload.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "dag/generators.h"
#include "util/check.h"

namespace dagsched {

Dag sample_dag(Rng& rng, DagFamily family, double size_scale,
               const WorkDist& node_work) {
  DS_CHECK(size_scale > 0.0);
  if (family == DagFamily::kMixed) {
    constexpr DagFamily kFamilies[] = {
        DagFamily::kChain,   DagFamily::kParallelBlock,
        DagFamily::kForkJoin, DagFamily::kLayered,
        DagFamily::kSeriesParallel, DagFamily::kRandom};
    family = kFamilies[static_cast<std::size_t>(rng.uniform_int(0, 5))];
  }
  auto scaled = [size_scale, &rng](std::int64_t lo, std::int64_t hi) {
    const auto raw = rng.uniform_int(lo, hi);
    return static_cast<std::size_t>(std::max<double>(
        1.0, std::round(static_cast<double>(raw) * size_scale)));
  };
  const WorkDist& work = node_work;
  switch (family) {
    case DagFamily::kChain:
      return make_chain(scaled(4, 24), work.sample(rng));
    case DagFamily::kParallelBlock:
      return make_parallel_block(scaled(8, 64), work.sample(rng));
    case DagFamily::kForkJoin:
      // Sync nodes drawn from the same distribution: keeps the DAG
      // slot-friendly when node_work is constant (slot-engine experiments).
      return make_fork_join(scaled(2, 5), scaled(4, 12), work.sample(rng),
                            work.sample(rng));
    case DagFamily::kLayered: {
      LayeredParams params;
      params.layers = scaled(3, 6);
      params.min_width = 1;
      params.max_width = std::max<std::size_t>(2, scaled(4, 10));
      params.work = work;
      return make_layered_random(rng, params);
    }
    case DagFamily::kSeriesParallel: {
      SeriesParallelParams params;
      params.max_depth = std::min<std::size_t>(5, std::max<std::size_t>(
                                                      2, scaled(2, 4)));
      params.leaf_work = work;
      params.sync_work = work.sample(rng);
      return make_series_parallel(rng, params);
    }
    case DagFamily::kRandom: {
      RandomDagParams params;
      params.nodes = scaled(12, 48);
      params.edge_prob = rng.uniform(0.05, 0.2);
      params.work = work;
      return make_random_dag(rng, params);
    }
    case DagFamily::kWavefront:
      return make_wavefront(scaled(3, 8), scaled(3, 8), work.sample(rng));
    case DagFamily::kStencil:
      return make_stencil_1d(scaled(3, 6), scaled(4, 10), work.sample(rng));
    case DagFamily::kMapReduce:
      return make_map_reduce(scaled(4, 16), scaled(2, 6), work.sample(rng),
                             work.sample(rng), work.sample(rng));
    case DagFamily::kMixed: break;  // handled above
  }
  DS_CHECK_MSG(false, "unreachable DAG family");
  return make_single_node(1.0);
}

Time assign_deadline(Rng& rng, const DeadlinePolicy& policy, Work work,
                     Work span, ProcCount m) {
  const double md = static_cast<double>(m);
  const Work greedy = (work - span) / md + span;
  const Work ideal = std::max(span, work / md);
  switch (policy.kind) {
    case DeadlinePolicy::Kind::kProportionalSlack:
      return (1.0 + policy.eps) * greedy;
    case DeadlinePolicy::Kind::kTight:
      return (1.0 + policy.tight_margin) * ideal;
    case DeadlinePolicy::Kind::kReasonable:
      return greedy * (1.0 + rng.uniform(0.0, policy.extra));
    case DeadlinePolicy::Kind::kUniformSlack:
      return (1.0 + rng.uniform(policy.eps_lo, policy.eps_hi)) * greedy;
  }
  DS_CHECK_MSG(false, "unreachable deadline policy");
  return greedy;
}

ProfitFn assign_profit(Rng& rng, const ProfitPolicy& policy, Work work,
                       Time deadline) {
  Profit p = 1.0;
  switch (policy.magnitude) {
    case ProfitPolicy::Magnitude::kUniform:
      p = rng.uniform(policy.lo, policy.hi);
      break;
    case ProfitPolicy::Magnitude::kProportionalWork:
      p = work * rng.uniform(policy.lo, policy.hi);
      break;
    case ProfitPolicy::Magnitude::kPareto:
      p = rng.pareto(policy.lo, policy.hi);
      break;
  }
  p = std::max(p, 1e-6);
  switch (policy.shape) {
    case ProfitPolicy::Shape::kStep:
      return ProfitFn::step(p, deadline);
    case ProfitPolicy::Shape::kPlateauLinear:
      return ProfitFn::plateau_linear(p, deadline,
                                      deadline * (1.0 + policy.decay));
    case ProfitPolicy::Shape::kPlateauExp:
      return ProfitFn::plateau_exponential(p, deadline,
                                           policy.decay / deadline);
  }
  DS_CHECK_MSG(false, "unreachable profit shape");
  return ProfitFn::step(p, deadline);
}

namespace {

/// Empirical mean total work of the configured DAG family, from a fixed
/// sample (used to convert target load into an arrival rate).
Work estimate_mean_work(const WorkloadConfig& config, Rng& rng) {
  constexpr int kSamples = 48;
  Work total = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    total += sample_dag(rng, config.family, config.size_scale,
                        config.node_work)
                 .total_work();
  }
  return total / kSamples;
}

}  // namespace

JobSet generate_workload(Rng& rng, const WorkloadConfig& config) {
  DS_CHECK(config.m >= 1);
  DS_CHECK(config.target_load > 0.0);
  DS_CHECK(config.horizon > 0.0);

  Rng estimator = rng.split(0xE57);
  const Work mean_work = estimate_mean_work(config, estimator);
  const double job_rate =
      config.target_load * static_cast<double>(config.m) / mean_work;

  // Arrival times.
  std::vector<Time> arrivals;
  switch (config.arrivals.kind) {
    case ArrivalKind::kPoisson: {
      Time t = 0.0;
      for (;;) {
        t += rng.exponential(job_rate);
        if (t >= config.horizon) break;
        arrivals.push_back(t);
      }
      break;
    }
    case ArrivalKind::kPeriodicBurst: {
      // Scale the per-burst size so offered load matches the target.
      const double bursts = config.horizon / config.arrivals.burst_period;
      const double total_jobs = job_rate * config.horizon;
      const auto per_burst = static_cast<std::size_t>(
          std::max(1.0, std::round(total_jobs / bursts)));
      for (Time t = 0.0; t < config.horizon;
           t += config.arrivals.burst_period) {
        for (std::size_t i = 0; i < per_burst; ++i) arrivals.push_back(t);
      }
      break;
    }
    case ArrivalKind::kUniform: {
      const auto count = static_cast<std::size_t>(
          std::max(1.0, std::round(job_rate * config.horizon)));
      for (std::size_t i = 0; i < count; ++i) {
        arrivals.push_back(rng.uniform(0.0, config.horizon));
      }
      std::sort(arrivals.begin(), arrivals.end());
      break;
    }
  }

  JobSet jobs;
  for (Time arrival : arrivals) {
    if (config.integral_releases) arrival = std::floor(arrival);
    auto dag = std::make_shared<const Dag>(
        sample_dag(rng, config.family, config.size_scale, config.node_work));
    const Work work = dag->total_work();
    const Work span = dag->span();
    const Time deadline =
        assign_deadline(rng, config.deadline, work, span, config.m);
    ProfitFn profit = assign_profit(rng, config.profit, work, deadline);
    jobs.add(Job(std::move(dag), arrival, std::move(profit)));
  }
  jobs.finalize();
  return jobs;
}

}  // namespace dagsched
