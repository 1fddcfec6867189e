// Upper bounds on the clairvoyant optimal profit ("OPT").
//
// Exact OPT is NP-hard (it embeds precedence-constrained makespan, the
// paper's Theorem-1 hardness source), so experiments bracket it:
//   * below by the best clairvoyant offline baseline run (exp/ harness),
//   * above by the bounds here.
//
// The interval-capacity relaxation: give each clairvoyantly-feasible job
// y_i in [0, W_i] units of work and maximize sum (p_i / W_i) y_i subject
// to, for every time window I, the jobs whose whole feasibility interval
// [r_i, d_i] lies inside I receiving at most the window's capacity:
//     sum_{i : [r_i, d_i] ⊆ I} y_i  <=  m * s * |I|.
// No speed-s schedule can beat it.  These are Horn's conditions for a
// fluid (rate up to m * s per job) schedule, so the feasible y form a
// polymatroid and filling jobs greedily by density p_i / W_i, each up to
// the least remaining slack of a window around it, solves the relaxation
// exactly.  Above kMaxBoundJobs finite-support jobs the quadratic slack
// query is skipped and the bound is the trivial sum of feasible peaks.
#pragma once

#include <cstddef>

#include "job/job.h"
#include "util/types.h"

namespace dagsched {

/// Largest number of finite-support feasible jobs the relaxation is
/// solved for; above it compute_opt_upper_bound returns the trivial bound.
inline constexpr std::size_t kMaxBoundJobs = 512;

struct OptBound {
  /// Sum of peaks over clairvoyantly-feasible jobs.
  Profit trivial = 0.0;
  /// Interval-capacity bound; == trivial when the job cap skipped it.
  Profit lp = 0.0;
  /// True when the relaxation was solved (not skipped by the job cap).
  bool lp_used = false;

  /// The tightest available upper bound.
  Profit value() const { return lp_used ? lp : trivial; }
};

/// True if some 1-speed clairvoyant schedule could complete the job within
/// its deadline in isolation: L_i/s <= D_i and W_i/(m s) <= D_i.  Jobs with
/// unbounded profit support are always feasible.
bool clairvoyantly_feasible(const Job& job, ProcCount m, double speed);

/// `opt_speed` is the speed of the optimal schedule being bounded (1.0
/// except in augmentation checks where OPT itself is sped up).
OptBound compute_opt_upper_bound(const JobSet& jobs, ProcCount m,
                                 double opt_speed = 1.0);

}  // namespace dagsched
