// Synthetic online workloads.
//
// The paper has no empirical section, so the evaluation workloads are
// synthetic by design (see DESIGN.md): a stream of DAG jobs with a
// controllable arrival process, DAG-shape mix, deadline-slack policy (the
// knob Theorem 2's assumption is about) and profit policy (the knob the
// density-based admission is about).
#pragma once

#include <vector>

#include "dag/generators.h"
#include "job/job.h"
#include "util/rng.h"
#include "util/types.h"

namespace dagsched {

// ---------------------------------------------------------------------------
// Knobs
// ---------------------------------------------------------------------------

enum class ArrivalKind {
  kPoisson,        // exponential inter-arrival gaps
  kPeriodicBurst,  // `burst_size` jobs every `burst_period`
  kUniform,        // i.i.d. uniform arrival times over the horizon
};

struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::kPoisson;
  /// kPeriodicBurst only.
  double burst_period = 50.0;
  std::size_t burst_size = 8;
};

enum class DagFamily {
  kChain,
  kParallelBlock,
  kForkJoin,
  kLayered,
  kSeriesParallel,
  kRandom,
  kMixed,  // uniform draw among the families above
  // HPC task-graph shapes; selectable explicitly (not part of kMixed so
  // recorded experiment outputs stay stable).
  kWavefront,
  kStencil,
  kMapReduce,
};

struct DeadlinePolicy {
  enum class Kind {
    /// D = (1 + eps) * ((W-L)/m + L): exactly Theorem 2's assumption.
    kProportionalSlack,
    /// D = max(L, W/m) * (1 + tight_margin): the regime of Theorem 1 /
    /// Corollary 1 where only speed augmentation helps.
    kTight,
    /// D = ((W-L)/m + L) * (1 + U[0, extra]): Corollary 2's "reasonable"
    /// jobs.
    kReasonable,
    /// eps ~ U[eps_lo, eps_hi] per job, then as kProportionalSlack.
    kUniformSlack,
  };
  Kind kind = Kind::kProportionalSlack;
  double eps = 0.5;           // kProportionalSlack
  double tight_margin = 1e-3; // kTight
  double extra = 1.0;         // kReasonable
  double eps_lo = 0.1;        // kUniformSlack
  double eps_hi = 1.0;
};

struct ProfitPolicy {
  enum class Magnitude {
    kUniform,           // p ~ U[lo, hi]
    kProportionalWork,  // p = W * U[lo, hi]  (bounded density spread)
    kPareto,            // p ~ Pareto(lo, shape=hi)  (heavy-tailed)
  };
  Magnitude magnitude = Magnitude::kProportionalWork;
  double lo = 0.5;
  double hi = 2.0;

  /// Shape of p_i(t) for general-profit experiments.  For non-step shapes
  /// the plateau end x* is set to the job's deadline from DeadlinePolicy
  /// (so Theorem 3's assumption x* >= (1+eps)((W-L)/m+L) holds whenever the
  /// deadline policy provides that slack).
  enum class Shape { kStep, kPlateauLinear, kPlateauExp };
  Shape shape = Shape::kStep;
  /// kPlateauLinear: profit reaches 0 at x* * (1 + decay).
  /// kPlateauExp: decay rate = `decay` / x*.
  double decay = 1.0;
};

struct WorkloadConfig {
  ProcCount m = 16;
  /// Average offered load sum(W) / (m * horizon); arrival rate is derived
  /// from an empirical estimate of E[W] for the configured DAG family.
  double target_load = 0.7;
  Time horizon = 1000.0;
  ArrivalConfig arrivals;
  DagFamily family = DagFamily::kMixed;
  /// Scales the node counts of generated DAGs (1.0 = family defaults).
  double size_scale = 1.0;
  /// Node processing-time distribution.  Slot-engine experiments should use
  /// constant(1.0): the paper's time-step model has unit-work nodes, and
  /// fractional nodes waste slot capacity the x_i budget does not account
  /// for.
  WorkDist node_work = WorkDist::uniform(0.5, 1.5);
  DeadlinePolicy deadline;
  ProfitPolicy profit;
  /// Round release times down to integers (slot-engine experiments).
  bool integral_releases = false;
};

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

/// Draws one DAG of the given family (kMixed draws the family too).
Dag sample_dag(Rng& rng, DagFamily family, double size_scale,
               const WorkDist& node_work = WorkDist::uniform(0.5, 1.5));

/// Builds a full online instance per `config`; deterministic in `rng`.
JobSet generate_workload(Rng& rng, const WorkloadConfig& config);

/// The relative deadline the policy assigns to a job with the given shape
/// parameters on m processors (exposed for tests).
Time assign_deadline(Rng& rng, const DeadlinePolicy& policy, Work work,
                     Work span, ProcCount m);

/// The profit function the policy assigns (exposed for tests).
ProfitFn assign_profit(Rng& rng, const ProfitPolicy& policy, Work work,
                       Time deadline);

}  // namespace dagsched
