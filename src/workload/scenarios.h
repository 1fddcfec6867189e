// Canned workload configurations for the experiment suite (DESIGN.md E3-E7).
// Keeping them in the library (rather than in each bench binary) guarantees
// tests, benches and examples exercise identical instances for a given seed.
#pragma once

#include "workload/workload.h"

namespace dagsched {

/// E3 (Theorem 2): every job gets exactly (1+eps) deadline slack.
WorkloadConfig scenario_thm2(double eps, double load, ProcCount m);

/// E4 (Corollary 1): tight deadlines D = max(L, W/m)(1 + margin); only
/// speed augmentation can make S competitive.
WorkloadConfig scenario_tight(double load, ProcCount m);

/// E5 (Corollary 2): "reasonable" jobs D >= (W-L)/m + L with random extra
/// slack.
WorkloadConfig scenario_reasonable(double load, ProcCount m);

/// E6 (Theorem 3): general profit functions with a plateau at
/// x* = (1+eps) * ((W-L)/m + L) and the given decay shape; integral
/// releases for the slot engine.
WorkloadConfig scenario_profit(double eps, double load, ProcCount m,
                               ProfitPolicy::Shape shape);

/// E7 (baseline shoot-out): mixed DAGs, per-job slack eps ~ U[lo, hi],
/// heavy-tailed profits so that density-blind policies can be fooled.
WorkloadConfig scenario_shootout(double load, ProcCount m, double slack_lo,
                                 double slack_hi);

}  // namespace dagsched
